// Shared pieces of the ladder benchmark: workload shapes, seed derivation,
// sample statistics, in-memory spans, the problem instances that run one
// ladder call per submit(), and the per-layer probes.
//
// Every instance is a closed loop: one driver thread (the CCSD driver's
// role) issues the next submission only after the previous one returned.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ga/global_array.h"
#include "ptg/trace.h"
#include "tce/block_tensor.h"
#include "tce/chain_plan.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/storage.h"
#include "tce/template_cache.h"
#include "tce/tiles.h"
#include "vc/cluster.h"

namespace lb {

namespace ga = mp::ga;
namespace ptg = mp::ptg;
namespace tce = mp::tce;
namespace vc = mp::vc;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

enum class Kind { kCoarse, kFineLocal, kFineRemote, kSkewedSteal };

struct Shape {
  int ranks = 1;
  int workers = 1;  ///< compute workers per rank (each rank adds a comm thread)
  int threads() const { return ranks * (workers + 1); }
};

struct WorkloadSpec {
  const char* name;
  Kind kind;
  Shape shape;
  int sessions;  ///< fresh cold-started sessions pooled in one run
};

/// One of the four workloads of BENCHMARK.json, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

/// Online CPUs this process may run on (what `nproc` prints).
int online_cpus();

/// Problem sizes; --smoke swaps in tiny ones so every workload runs in
/// well under a second.
struct Sizes {
  int coarse_no_a = 6, coarse_nv_a = 32, coarse_tile = 8;
  tce::TileSpaceSpec fine{3, 3, 5, 5, 2, 1};
  tce::TileSpaceSpec empty{1, 1, 2, 2, 2, 1};  ///< near-empty plan
  int empty_tasks = 20000;  ///< ptg.empty_task_us batch
  int hops = 4000;          ///< ptg.local_hop_us chain length
  int remote_hops = 400;    ///< vc.msg_us / vc.remote_hop_us round trips
  int probe_reps = 5;       ///< repeats of each setup-component probe
  static Sizes smoke();
};

/// The coarse tile space (the ladder_coarse system's, also used by the
/// skewed steal workload).
tce::TileSpaceSpec coarse_spec(const Sizes& sz);
/// The tile space a workload's plan is inspected over.
tce::TileSpaceSpec workload_space(const WorkloadSpec& w, const Sizes& sz);

// ---------------------------------------------------------------- seeds

/// Independent input streams derived from the one --seed argument.
enum class Stream : uint64_t { kSystem = 1, kFill = 2, kImbalance = 3, kSteal = 4 };
uint64_t derive_seed(uint64_t seed, Stream s);

// ---------------------------------------------------------------- samples

double quantile(std::vector<double> v, double q);  ///< linear interpolation
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// max|x - ref| / max|ref| (0 when both are all-zero).
double rel_error(const std::vector<double>& x, const std::vector<double>& ref);
constexpr double kTolerance = 1e-12;

// ---------------------------------------------------------------- spans

/// Benchmark-side spans around public calls, plus the runtime's own
/// TraceEvents of selected submissions, kept in memory and written as JSON
/// lines at the end of a traced run.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Open a span; returns its id (0 when disabled).
  int64_t open(const char* name, const char* layer, int64_t parent = 0);
  void close(int64_t id);
  /// Attach a runtime trace under `parent` (times are relative to the
  /// trace's own epoch, so they are shifted onto the parent's start).
  void attach_runtime(int64_t parent, const ptg::Trace& trace,
                      const std::vector<std::string>& class_names);
  bool write(const std::string& path) const;

 private:
  struct Span {
    int64_t id = 0, parent = 0;
    std::string name;
    const char* layer = "";
    double t0_us = 0.0, t1_us = 0.0;
    int rank = -1, worker = -2;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII helper: span open for the scope's lifetime.
class SpanScope {
 public:
  SpanScope(Spans& s, const char* name, const char* layer, int64_t parent = 0)
      : s_(s), id_(s.open(name, layer, parent)) {}
  ~SpanScope() { s_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int64_t id() const { return id_; }

 private:
  Spans& s_;
  int64_t id_;
};

// ---------------------------------------------------------------- instances

/// Counters of one submission, summed over ranks.
struct IterStats {
  uint64_t tasks = 0;
  uint64_t remote_activations = 0;
  uint64_t contended_pops = 0, contended_pushes = 0, sched_steals = 0;
  uint64_t fabric_msgs = 0, fabric_bytes = 0;
  uint64_t migrated = 0, steal_requests = 0, credits = 0;
  uint64_t replies_received = 0, useful_replies = 0;
  std::vector<uint64_t> tasks_per_rank;
};

/// One cold-started ladder problem with its persistent PTG session.
/// Constructing it plus the first submit() is the cold set-up.
class Instance {
 public:
  virtual ~Instance() = default;
  /// Untimed per-submission preparation (zeroing the result GA).
  virtual void prepare() {}
  /// One ladder call through the PTG executor (the timed operation).
  virtual void submit() = 0;
  /// The same plan through the original GA/NXTVAL executor.
  virtual void submit_original() = 0;
  /// Relative error of the last submission's result against the serial
  /// reference executor (computed once per instance, on first use).
  virtual double check() = 0;
  virtual IterStats last_stats() const = 0;
  virtual ptg::Trace last_trace() const = 0;
  virtual std::vector<std::string> class_names() const = 0;
  virtual const tce::ChainPlan& plan() const = 0;
};

std::unique_ptr<Instance> make_instance(const WorkloadSpec& w, const Sizes& sz,
                                        uint64_t seed, bool traced);

/// Tile space, block shapes, Global Arrays and the t2_7 plan on a cluster
/// owned by the problem. The A/B operands are filled from `fill_seed`.
struct Problem {
  Problem(const tce::TileSpaceSpec& spec, int nranks, uint64_t fill_seed);

  tce::StoreList stores() { return {{&v_shape, &v_ga}, {&t_shape, &t_ga},
                                    {&r_shape, &r_ga}}; }

  vc::Cluster cluster;
  tce::TileSpace space;
  tce::BlockTensor4 v_shape, t_shape, r_shape;
  ga::GlobalArray v_ga, t_ga, r_ga;
  tce::ChainPlan plan;
};

/// The plan a workload submits, built over `p` (the skewed workload
/// transforms the base t2_7 plan).
tce::ChainPlan workload_plan(const WorkloadSpec& w, const Problem& p,
                             uint64_t seed);

/// Template of `plan` over `p`'s stores, built through `cache`.
std::shared_ptr<tce::PtgTemplate> build_template(tce::TemplateCache& cache,
                                                 const WorkloadSpec& w,
                                                 Problem& p,
                                                 const tce::ChainPlan& plan);

class StealSession;

/// The persistent session a workload submits through: tce::PtgSession, or
/// for the steal workload a session with stealing on and the steal agent
/// seeded from the workload seed.
class Session {
 public:
  Session(const WorkloadSpec& w, Problem& p,
          std::shared_ptr<tce::PtgTemplate> tpl, bool traced, uint64_t seed);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::vector<tce::PtgExecResult>& submit(const tce::StoreList& stores);
  /// Steal replies of the last submission that carried tasks (0 without
  /// stealing).
  uint64_t useful_replies() const;

 private:
  std::unique_ptr<tce::PtgSession> ptg_;
  std::unique_ptr<StealSession> steal_;
};

// ---------------------------------------------------------------- report

/// The metrics of one run, in report order, each with its sample count.
struct Report {
  struct Row {
    std::string name;
    double value;
    std::string unit;
    size_t n;
  };
  std::vector<Row> rows;
  /// Throws when `value` is not finite (JSON has no NaN or infinity).
  void add(const std::string& name, double value, const std::string& unit,
           size_t n = 1);
  /// Throws when `name` was not added.
  double get(const std::string& name) const;
};

// ---------------------------------------------------------------- layers

/// Layer probes, each at the workload's tile space and shape. They append
/// per-layer metrics to `out`.
///  - kernels and data movement over one iteration's plan, run serially:
///    linalg.*, ga.*, cc.*;
void probe_data_layers(const WorkloadSpec& w, const Sizes& sz, uint64_t seed,
                       Spans& spans, Report& out);
///  - the set-up components and steady submit cost: tce.*;
void probe_tce(const WorkloadSpec& w, const Sizes& sz, uint64_t seed,
               Spans& spans, Report& out);
///  - empty-task, hop and message costs of the runtime and fabric, which do
///    not depend on the workload: ptg.empty_task_us.*, ptg.local_hop_us,
///    vc.msg_us, vc.remote_hop_us.
void probe_ptg_vc(const Sizes& sz, Spans& spans, Report& out);
/// sim::simulate_ptg of `plan` at the workload's shape, in seconds.
double simulate_seconds(const WorkloadSpec& w, const tce::ChainPlan& plan);

}  // namespace lb
