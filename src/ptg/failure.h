// Rank-failure tolerance types shared by the runtime (src/ptg/context.*),
// the executor front end (src/tce/ptg_exec.*) and the tests: the job-level
// recovery policy and the failure detector / recovery counters.
//
// Failure model (DESIGN.md §10): fail-stop, non-root ranks only. A dead rank
// goes silent — it never sends corrupt data, and it never comes back within
// a job (revive_rank exists for transport-layer tests only). Rank 0 is the
// termination coordinator and is assumed reliable; its death escalates to a
// StateError under every policy.
#pragma once

#include <cstdint>
#include <string>

namespace mp::ptg {

/// What the job does when a non-root rank is confirmed dead.
enum class FailurePolicy {
  /// Today's behavior, made prompt and structured: every rank raises a
  /// StateError naming the dead rank and the lost chains instead of hanging
  /// until the watchdog fires.
  kAbort,
  /// Re-execute the dead rank's lost chains on survivors, keeping the
  /// original key->rank map for everything else. Tolerates up to
  /// Options::retry_limit deaths, then escalates like kAbort.
  kRetry,
  /// Rebuild the distribution over the survivors: every key homed on the
  /// dead rank is deterministically re-homed by hashing over the surviving
  /// communicator. Tolerates one death, then escalates.
  kDegrade,
};

inline const char* to_string(FailurePolicy p) {
  switch (p) {
    case FailurePolicy::kAbort:
      return "abort";
    case FailurePolicy::kRetry:
      return "retry";
    case FailurePolicy::kDegrade:
      return "degrade";
  }
  return "?";
}

/// Per-rank counters for the heartbeat failure detector and lineage-based
/// recovery. All counters are written by the comm thread, except the two
/// deposit counters, which workers write too; snapshots from other threads
/// are taken after Context::run returns (or are tolerated as advisory in
/// watchdog dumps).
struct FailureStats {
  /// Explicit HEARTBEAT messages sent while idle (piggybacked liveness on
  /// ordinary traffic is free and not counted here).
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeats_received = 0;
  /// Probes: a direct "are you alive?" sent when a peer becomes suspect.
  uint64_t probes_sent = 0;
  uint64_t probes_answered = 0;
  /// Suspicion lifecycle: every suspicion either clears (the peer spoke) or
  /// ends in a confirmed death.
  uint64_t suspicions = 0;
  uint64_t suspicions_cleared = 0;
  uint64_t deaths_confirmed = 0;
  /// Recovery: chains re-homed to this rank from a dead peer, lineage
  /// entries replayed toward survivors, and in-flight migrated chains
  /// re-injected after their holder died.
  uint64_t tasks_adopted = 0;
  uint64_t lineage_replayed = 0;
  uint64_t tasks_reinjected = 0;
  /// Messages from confirmed-dead sources fenced (discarded) on arrival.
  uint64_t fenced_dropped = 0;
  /// Duplicate deposits dropped by the recovery-idempotence filter (a
  /// replayed activation racing the original delivery).
  uint64_t dup_deposits_dropped = 0;
  /// Deposits into instances outside this rank's dependency table (keys
  /// re-homed here by recovery), which take the mutex-guarded fallback map.
  uint64_t fallback_deposits = 0;
  /// Watchdog deadline resets attributed to a confirmed death (the
  /// regression pair in test_failure pins this to exactly one per death).
  uint64_t watchdog_resets_on_death = 0;

  /// Internal-consistency self check, same contract as FabricStats: empty
  /// string when consistent, else a description of the violated invariant.
  std::string validate() const {
    if (suspicions_cleared > suspicions) {
      return "FailureStats: suspicions_cleared (" +
             std::to_string(suspicions_cleared) + ") > suspicions (" +
             std::to_string(suspicions) + ")";
    }
    if (deaths_confirmed > suspicions) {
      return "FailureStats: deaths_confirmed (" +
             std::to_string(deaths_confirmed) + ") > suspicions (" +
             std::to_string(suspicions) + ")";
    }
    if (probes_answered > probes_sent) {
      return "FailureStats: probes_answered (" +
             std::to_string(probes_answered) + ") > probes_sent (" +
             std::to_string(probes_sent) + ")";
    }
    if (watchdog_resets_on_death != deaths_confirmed) {
      return "FailureStats: watchdog_resets_on_death (" +
             std::to_string(watchdog_resets_on_death) +
             ") != deaths_confirmed (" + std::to_string(deaths_confirmed) +
             ")";
    }
    if ((tasks_adopted > 0 || lineage_replayed > 0 || tasks_reinjected > 0) &&
        deaths_confirmed == 0) {
      return "FailureStats: recovery work recorded with deaths_confirmed == 0";
    }
    // Every key this rank owns is in its table, so only a death re-homes
    // a deposit to the fallback map. A peer may reroute before this rank
    // confirms the death itself, so this holds for post-run snapshots.
    if (fallback_deposits > 0 && deaths_confirmed == 0) {
      return "FailureStats: fallback_deposits (" +
             std::to_string(fallback_deposits) +
             ") > 0 with deaths_confirmed == 0";
    }
    return {};
  }

  std::string describe() const {
    return "hb_sent=" + std::to_string(heartbeats_sent) +
           " hb_recv=" + std::to_string(heartbeats_received) +
           " probes=" + std::to_string(probes_sent) + "/" +
           std::to_string(probes_answered) +
           " suspicions=" + std::to_string(suspicions) + " (cleared " +
           std::to_string(suspicions_cleared) + ")" +
           " deaths=" + std::to_string(deaths_confirmed) +
           " adopted=" + std::to_string(tasks_adopted) +
           " replayed=" + std::to_string(lineage_replayed) +
           " reinjected=" + std::to_string(tasks_reinjected) +
           " fenced=" + std::to_string(fenced_dropped) +
           " dup_drop=" + std::to_string(dup_deposits_dropped) +
           " fallback=" + std::to_string(fallback_deposits);
  }
};

}  // namespace mp::ptg
