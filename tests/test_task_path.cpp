// The per-task runtime path (DESIGN.md §6, §7, §11.2): workers count their
// completions locally and publish them when they run dry, wake only when
// someone sleeps, and a persistent Context pushes its startup frontier from
// a cache enumerated once. These tests pin what that must not change:
//  * completion and every counter pair are exact after each submission of
//    a persistent Context, at 1-4 workers;
//  * no wakeup is lost (chains that keep most workers asleep must finish);
//  * the cached frontier gives the serial result across submissions and
//    store re-binds;
//  * buffers handed out for overwrite are overwritten in full (the pool is
//    seeded with NaN-filled vectors first).
// Labels stress and resubmit, so the sanitizer runs cover them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "ga/global_array.h"
#include "ptg/context.h"
#include "support/rng.h"
#include "tce/block_tensor.h"
#include "tce/inspector.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/reference_exec.h"
#include "tce/template_cache.h"
#include "tce/tiles.h"
#include "vc/cluster.h"

namespace mp {
namespace {

/// Aborts the process if the guarded scope outlives `seconds`: a lost
/// wakeup parks every worker with work still queued, which the watchdog
/// deliberately does not treat as a stall, so without this the test would
/// hang until the ctest timeout.
class HangGuard {
 public:
  HangGuard(const char* what, int seconds)
      : thread_([this, what, seconds] {
          std::unique_lock lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "HangGuard: %s did not finish in %d s\n",
                         what, seconds);
            std::abort();
          }
        }) {}
  ~HangGuard() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// --- fine random DAG: exact counters after every persistent submission ---

/// Layered random DAG with fan-in up to 3; node (l, i) sums its inputs.
struct FineDag {
  int layers = 0, width = 0;
  std::vector<std::vector<std::vector<int>>> parents;  // [l][i] -> parents
  std::vector<std::vector<std::vector<std::pair<int, int>>>> kids;

  static FineDag make(int layers, int width, uint64_t seed) {
    FineDag d;
    d.layers = layers;
    d.width = width;
    Rng rng(seed);
    const auto L = static_cast<size_t>(layers);
    const auto W = static_cast<size_t>(width);
    d.parents.assign(L, std::vector<std::vector<int>>(W));
    d.kids.assign(L, std::vector<std::vector<std::pair<int, int>>>(W));
    for (int l = 1; l < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        auto& plist = d.parents[static_cast<size_t>(l)][static_cast<size_t>(i)];
        const int n = 1 + static_cast<int>(rng.next_below(3));
        for (int k = 0; k < n; ++k) {
          const int p = static_cast<int>(rng.next_below(W));
          bool dup = false;
          for (int q : plist) dup |= q == p;
          if (dup) continue;
          d.kids[static_cast<size_t>(l - 1)][static_cast<size_t>(p)]
              .emplace_back(i, static_cast<int>(plist.size()));
          plist.push_back(p);
        }
      }
    }
    return d;
  }

  static int owner(int l, int i, int nranks) {
    return (l * 5 + i * 3) % nranks;
  }

  double value(int l, int i, double in) const {
    return 0.5 * in + static_cast<double>((l * 31 + i * 7) % 13) + 1.0;
  }

  std::vector<double> sinks() const {
    std::vector<double> prev(static_cast<size_t>(width), 0.0), cur(prev);
    for (int l = 0; l < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        double s = 0.0;
        for (int p : parents[static_cast<size_t>(l)][static_cast<size_t>(i)]) {
          s += prev[static_cast<size_t>(p)];
        }
        cur[static_cast<size_t>(i)] = value(l, i, s);
      }
      prev.swap(cur);
    }
    return prev;
  }

  uint64_t cross_rank_edges(int nranks) const {
    uint64_t n = 0;
    for (int l = 0; l + 1 < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        for (const auto& [child, slot] :
             kids[static_cast<size_t>(l)][static_cast<size_t>(i)]) {
          (void)slot;
          n += owner(l, i, nranks) != owner(l + 1, child, nranks) ? 1 : 0;
        }
      }
    }
    return n;
  }
};

ptg::Taskpool make_dag_pool(const FineDag& dag, int nranks,
                            std::vector<double>& sink_out,
                            std::mutex& sink_mu) {
  using namespace ptg;
  Taskpool pool;
  TaskClass c;
  c.name = "NODE";
  c.rank_of = [nranks](const Params& p) {
    return FineDag::owner(p[0], p[1], nranks);
  };
  c.num_task_inputs = [&dag](const Params& p) {
    return static_cast<int>(
        dag.parents[static_cast<size_t>(p[0])][static_cast<size_t>(p[1])]
            .size());
  };
  c.enumerate_rank = [&dag, nranks](int rank) {
    std::vector<Params> out;
    for (int l = 0; l < dag.layers; ++l) {
      for (int i = 0; i < dag.width; ++i) {
        if (FineDag::owner(l, i, nranks) == rank) {
          out.push_back(params_of(l, i));
        }
      }
    }
    return out;
  };
  c.body = [&dag, &sink_out, &sink_mu](TaskCtx& t) {
    const int l = t.params()[0], i = t.params()[1];
    double s = 0.0;
    const size_t n =
        dag.parents[static_cast<size_t>(l)][static_cast<size_t>(i)].size();
    for (size_t k = 0; k < n; ++k) s += (*t.input(static_cast<int>(k)))[0];
    const double v = dag.value(l, i, s);
    if (l == dag.layers - 1) {
      std::lock_guard lock(sink_mu);
      sink_out[static_cast<size_t>(i)] = v;
    }
    t.set_output(0, make_buf_pooled(1, v));
  };
  const int16_t id = pool.add_class(std::move(c));
  pool.mutable_cls(id).route_outputs = [&dag, id](const Params& p,
                                                  std::vector<OutRoute>& r) {
    for (const auto& [child, slot] :
         dag.kids[static_cast<size_t>(p[0])][static_cast<size_t>(p[1])]) {
      r.push_back({TaskKey{id, params_of(p[0] + 1, child)},
                   static_cast<int8_t>(slot), 0});
    }
  };
  return pool;
}

struct RankCounters {
  uint64_t executed = 0, completed = 0, expected = 0, remote = 0;
  ptg::StealStats steal;
  ptg::SchedStats sched;
  ptg::FailureStats failure;
};

/// N submissions of one persistent Context per rank; returns the counters
/// of every (submission, rank) and checks each submission's sinks.
std::vector<std::vector<RankCounters>> run_persistent_dag(
    const FineDag& dag, int nranks, int workers, bool stealing,
    int submissions) {
  const std::vector<double> want = dag.sinks();
  std::vector<std::vector<RankCounters>> out(
      static_cast<size_t>(submissions),
      std::vector<RankCounters>(static_cast<size_t>(nranks)));
  std::vector<double> got(want.size(), 0.0);
  std::mutex mu;
  vc::Cluster cluster(nranks);
  cluster.run([&](vc::RankCtx& rctx) {
    ptg::Taskpool pool = make_dag_pool(dag, nranks, got, mu);
    ptg::Options opts;
    opts.num_workers = workers;
    opts.persistent = true;
    opts.enable_stealing = stealing;
    ptg::Context ctx(rctx, pool, opts);
    for (int s = 0; s < submissions; ++s) {
      ctx.run();
      RankCounters& rc =
          out[static_cast<size_t>(s)][static_cast<size_t>(rctx.rank())];
      rc.executed = ctx.tasks_executed();
      rc.completed = ctx.tasks_completed();
      rc.expected = ctx.expected_tasks();
      rc.remote = ctx.remote_activations_sent();
      rc.steal = ctx.steal_stats();
      rc.sched = ctx.scheduler_stats();
      rc.failure = ctx.failure_stats();
      // Every rank has finished this submission (run() ends in a barrier)
      // before rank 0 checks and clears the sinks for the next one.
      if (rctx.rank() == 0) {
        std::lock_guard lock(mu);
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_DOUBLE_EQ(got[i], want[i])
              << "submission " << s << " sink " << i;
        }
        std::fill(got.begin(), got.end(), 0.0);
      }
      rctx.barrier();
    }
  });
  return out;
}

TEST(TaskPath, CountersExactAfterEveryPersistentSubmission) {
  const FineDag dag = FineDag::make(/*layers=*/24, /*width=*/40, 17);
  const uint64_t total = static_cast<uint64_t>(dag.layers) * dag.width;
  constexpr int kSubmissions = 6;
  for (int nranks : {1, 2}) {
    for (int workers = 1; workers <= 4; ++workers) {
      SCOPED_TRACE("ranks " + std::to_string(nranks) + " workers " +
                   std::to_string(workers));
      const auto runs =
          run_persistent_dag(dag, nranks, workers, false, kSubmissions);
      for (int s = 0; s < kSubmissions; ++s) {
        uint64_t expected = 0, remote = 0;
        for (int r = 0; r < nranks; ++r) {
          const RankCounters& rc =
              runs[static_cast<size_t>(s)][static_cast<size_t>(r)];
          EXPECT_EQ(rc.executed, rc.expected) << "submission " << s;
          EXPECT_EQ(rc.completed, rc.expected) << "submission " << s;
          EXPECT_EQ(rc.sched.validate(), "") << "submission " << s;
          expected += rc.expected;
          remote += rc.remote;
        }
        EXPECT_EQ(expected, total) << "submission " << s;
        EXPECT_EQ(remote, dag.cross_rank_edges(nranks)) << "submission " << s;
      }
    }
  }
}

TEST(TaskPath, StealingCounterPairsExactAfterEveryPersistentSubmission) {
  const FineDag dag = FineDag::make(/*layers=*/20, /*width=*/32, 29);
  const uint64_t total = static_cast<uint64_t>(dag.layers) * dag.width;
  constexpr int kSubmissions = 5;
  for (int workers : {1, 3}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const auto runs = run_persistent_dag(dag, 2, workers, true, kSubmissions);
    for (int s = 0; s < kSubmissions; ++s) {
      uint64_t executed = 0, migrated_out = 0, migrated_in = 0;
      for (int r = 0; r < 2; ++r) {
        const RankCounters& rc =
            runs[static_cast<size_t>(s)][static_cast<size_t>(r)];
        EXPECT_EQ(rc.completed, rc.expected) << "submission " << s;
        EXPECT_EQ(rc.steal.validate(), "") << "submission " << s;
        EXPECT_EQ(rc.steal.credits_sent, rc.steal.tasks_migrated_in);
        EXPECT_EQ(rc.steal.credits_received, rc.steal.tasks_migrated_out);
        EXPECT_EQ(rc.sched.validate(), "") << "submission " << s;
        executed += rc.executed;
        migrated_out += rc.steal.tasks_migrated_out;
        migrated_in += rc.steal.tasks_migrated_in;
      }
      EXPECT_EQ(executed, total) << "submission " << s;
      EXPECT_EQ(migrated_out, migrated_in) << "submission " << s;
    }
  }
}

// Every deposit of a job without a rank death lands in a dependency-table
// row: the mutex-guarded fallback map only takes keys a confirmed death
// re-homed. Same shapes as the two tests above.
TEST(TaskPath, NoFallbackDepositsWithoutARankDeath) {
  const FineDag dag = FineDag::make(/*layers=*/12, /*width=*/24, 41);
  constexpr int kSubmissions = 2;
  struct Shape {
    int nranks, workers;
    bool stealing;
  };
  std::vector<Shape> shapes;
  for (int nranks : {1, 2}) {
    for (int workers = 1; workers <= 4; ++workers) {
      shapes.push_back({nranks, workers, false});
    }
  }
  shapes.push_back({2, 1, true});
  shapes.push_back({2, 3, true});
  for (const Shape& sh : shapes) {
    SCOPED_TRACE("ranks " + std::to_string(sh.nranks) + " workers " +
                 std::to_string(sh.workers) +
                 (sh.stealing ? " stealing" : ""));
    const auto runs = run_persistent_dag(dag, sh.nranks, sh.workers,
                                         sh.stealing, kSubmissions);
    for (int s = 0; s < kSubmissions; ++s) {
      for (int r = 0; r < sh.nranks; ++r) {
        const RankCounters& rc =
            runs[static_cast<size_t>(s)][static_cast<size_t>(r)];
        EXPECT_EQ(rc.failure.fallback_deposits, 0u) << "submission " << s;
        EXPECT_EQ(rc.failure.validate(), "") << "submission " << s;
      }
    }
  }
}

// --- lost-wakeup stress ---

// Two long single-successor chains on four workers keep at least two
// workers asleep nearly all the time; every 8th link also fans out to
// three leaves, so sleepers are woken (and go back to sleep) constantly.
// A push that skipped its notify while a worker was registering as a
// sleeper would strand a task in a heap with every worker blocked.
TEST(TaskPath, ChainsWithPeriodicFanOutNeverLoseAWakeup) {
  using namespace ptg;
  constexpr int kChains = 2, kLength = 400, kFanEvery = 8, kFan = 3;
  constexpr int kSubmissions = 200;
  HangGuard guard("lost-wakeup stress", 120);
  std::atomic<uint64_t> leaves{0};
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass link;
    link.name = "LINK";
    link.rank_of = [](const Params&) { return 0; };
    link.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    link.enumerate_rank = [](int) {
      std::vector<Params> out;
      for (int c = 0; c < kChains; ++c) {
        for (int i = 0; i < kLength; ++i) out.push_back(params_of(c, i));
      }
      return out;
    };
    link.body = [](TaskCtx& t) { t.set_output(0, make_buf_pooled(1, 1.0)); };
    TaskClass leaf;
    leaf.name = "LEAF";
    leaf.rank_of = [](const Params&) { return 0; };
    leaf.num_task_inputs = [](const Params&) { return 1; };
    leaf.enumerate_rank = [](int) {
      std::vector<Params> out;
      for (int c = 0; c < kChains; ++c) {
        for (int i = 0; i < kLength; i += kFanEvery) {
          for (int k = 0; k < kFan; ++k) out.push_back(params_of(c, i, k));
        }
      }
      return out;
    };
    leaf.body = [&leaves](TaskCtx&) {
      leaves.fetch_add(1, std::memory_order_relaxed);
    };
    const int16_t link_id = pool.add_class(std::move(link));
    const int16_t leaf_id = pool.add_class(std::move(leaf));
    pool.mutable_cls(link_id).route_outputs =
        [link_id, leaf_id](const Params& p, std::vector<OutRoute>& r) {
          if (p[1] + 1 < kLength) {
            r.push_back({TaskKey{link_id, params_of(p[0], p[1] + 1)}, 0, 0});
          }
          if (p[1] % kFanEvery == 0) {
            for (int k = 0; k < kFan; ++k) {
              r.push_back({TaskKey{leaf_id, params_of(p[0], p[1], k)}, 0, 0});
            }
          }
        };
    Options opts;
    opts.num_workers = 4;
    opts.persistent = true;
    Context ctx(rctx, pool, opts);
    for (int s = 0; s < kSubmissions; ++s) {
      ctx.run();
      EXPECT_EQ(ctx.tasks_executed(), ctx.expected_tasks()) << "run " << s;
      EXPECT_TRUE(ctx.try_reset_in_band());
    }
  });
  const uint64_t per_run = kChains * ((kLength + kFanEvery - 1) / kFanEvery) *
                           static_cast<uint64_t>(kFan);
  EXPECT_EQ(leaves.load(), per_run * kSubmissions);
}

// --- t2_7 plan fixtures ---

tce::TileSpaceSpec small_spec() {
  tce::TileSpaceSpec s;
  s.n_occ_alpha = 3;
  s.n_occ_beta = 3;
  s.n_virt_alpha = 5;
  s.n_virt_beta = 5;
  s.tile_size = 2;
  return s;
}

/// One t2_7 plan with several GA data sets of the same shapes, each with
/// its own serial reference.
class PlanData {
 public:
  PlanData(int nranks, int data_sets) {
    space_ = std::make_unique<tce::TileSpace>(small_spec());
    using tce::RangeKind;
    v_ = std::make_unique<tce::BlockTensor4>(
        *space_, std::array<RangeKind, 4>{RangeKind::kVirt, RangeKind::kVirt,
                                          RangeKind::kVirt, RangeKind::kVirt});
    t_ = std::make_unique<tce::BlockTensor4>(
        *space_, std::array<RangeKind, 4>{RangeKind::kVirt, RangeKind::kVirt,
                                          RangeKind::kOcc, RangeKind::kOcc});
    r_ = std::make_unique<tce::BlockTensor4>(
        *space_,
        std::array<RangeKind, 4>{RangeKind::kVirt, RangeKind::kVirt,
                                 RangeKind::kOcc, RangeKind::kOcc},
        true, true);
    plan_ = tce::inspect_t2_7(*space_, {v_.get(), t_.get(), r_.get()});
    cluster_ = std::make_unique<vc::Cluster>(nranks);
    Rng rng(5);
    for (int d = 0; d < data_sets; ++d) {
      Set s;
      s.v = std::make_unique<ga::GlobalArray>(cluster_.get(), v_->ga_size());
      s.t = std::make_unique<ga::GlobalArray>(cluster_.get(), t_->ga_size());
      s.r = std::make_unique<ga::GlobalArray>(cluster_.get(), r_->ga_size());
      fill(*s.v, rng);
      fill(*s.t, rng);
      s.storage.v = {v_.get(), s.v.get()};
      s.storage.t = {t_.get(), s.t.get()};
      s.storage.r = {r_.get(), s.r.get()};
      tce::execute_reference(plan_, s.storage);
      s.reference.resize(static_cast<size_t>(r_->ga_size()));
      s.r->get(0, s.r->size(), s.reference.data());
      sets_.push_back(std::move(s));
    }
  }

  struct Set {
    std::unique_ptr<ga::GlobalArray> v, t, r;
    tce::T2_7Storage storage;
    std::vector<double> reference;
  };

  /// Largest |result - reference| of set `d`'s R tensor.
  double error(int d) const {
    const Set& s = sets_[static_cast<size_t>(d)];
    std::vector<double> out(s.reference.size());
    s.r->get(0, s.r->size(), out.data());
    double m = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      m = std::max(m, std::fabs(out[i] - s.reference[i]));
    }
    return m;
  }

  Set& set(int d) { return sets_[static_cast<size_t>(d)]; }
  const tce::ChainPlan& plan() const { return plan_; }
  vc::Cluster& cluster() { return *cluster_; }

  tce::TemplateKey key(const tce::VariantConfig& v) const {
    tce::TemplateKey k;
    k.subroutine = "t2_7";
    k.tile_fingerprint = tce::fingerprint_tile_space(space_->spec());
    k.variant = tce::variant_signature(v);
    k.nranks = cluster_->nranks();
    return k;
  }

 private:
  static void fill(ga::GlobalArray& g, Rng& rng) {
    std::vector<double> data(static_cast<size_t>(g.size()));
    for (auto& x : data) x = rng.uniform(-1.0, 1.0);
    g.put(0, g.size(), data.data());
  }

  std::unique_ptr<tce::TileSpace> space_;
  std::unique_ptr<tce::BlockTensor4> v_, t_, r_;
  tce::ChainPlan plan_;
  std::unique_ptr<vc::Cluster> cluster_;
  std::vector<Set> sets_;
};

// The frontier is enumerated on the first submission and reused: results
// stay exact, and every rank runs the same instance count, whichever data
// set the template is re-bound to.
TEST(TaskPath, CachedStartupFrontierExactAcrossSubmissionsAndRebinds) {
  PlanData data(/*nranks=*/2, /*data_sets=*/2);
  for (const auto& variant :
       {tce::VariantConfig::v5(), tce::VariantConfig::v1()}) {
    SCOPED_TRACE(variant.name);
    tce::PtgExecOptions opts;
    opts.variant = variant;
    opts.workers_per_rank = 3;
    tce::TemplateCache cache;
    auto tpl = cache.get_or_build(data.key(variant), data.plan(),
                                  data.set(0).storage.stores(), variant);
    tce::PtgSession session(data.cluster(), tpl, opts);
    std::vector<uint64_t> first_expected;
    for (int s = 0; s < 6; ++s) {
      const int d = s % 2;
      data.set(d).r->zero();
      const auto& res = session.submit(data.set(d).storage.stores());
      EXPECT_LT(data.error(d), 1e-12) << "submission " << s;
      std::vector<uint64_t> expected;
      for (const auto& r : res) {
        EXPECT_EQ(r.tasks_executed, r.expected_tasks) << "submission " << s;
        expected.push_back(r.expected_tasks);
      }
      if (s == 0) first_expected = expected;
      EXPECT_EQ(expected, first_expected) << "submission " << s;
    }
    EXPECT_GE(tpl->rebinds(), 5u);
  }
}

// Buffers taken for overwrite (READ_A/READ_B, the v5 GEMM's fresh C with
// beta = 0, the SORT_i targets) reuse pooled vectors as they are. Seed the
// executing thread's pool with NaN-filled vectors of every size the plan
// asks for: any element a body failed to overwrite would reach the result.
TEST(TaskPath, OverwriteBuffersFromANaNSeededPoolMatchReference) {
  PlanData data(/*nranks=*/2, /*data_sets=*/1);
  std::set<size_t> sizes;
  for (const auto& ch : data.plan().chains) {
    sizes.insert(static_cast<size_t>(ch.c_elems()));
    for (const auto& g : ch.gemms) {
      sizes.insert(static_cast<size_t>(g.m) * g.k);
      sizes.insert(static_cast<size_t>(g.n) * g.k);
    }
  }
  ASSERT_FALSE(sizes.empty());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& variant :
       {tce::VariantConfig::v5(), tce::VariantConfig::v4()}) {
    SCOPED_TRACE(variant.name);
    data.set(0).r->zero();
    tce::PtgExecOptions opts;
    opts.variant = variant;
    opts.workers_per_rank = 1;  // every body runs on the seeded thread
    data.cluster().run([&](vc::RankCtx& rctx) {
      std::vector<ptg::DataBuf> seeds;
      for (size_t k = 0; seeds.size() < 48; ++k) {
        const size_t n = *std::next(sizes.begin(),
                                    static_cast<long>(k % sizes.size()));
        seeds.push_back(ptg::make_buf_pooled(n, nan));
      }
      seeds.clear();  // all back in this thread's pool, NaN-filled
      const auto res =
          tce::execute_ptg(rctx, data.plan(), data.set(0).storage, opts);
      EXPECT_EQ(res.tasks_executed, res.expected_tasks);
    });
    EXPECT_LT(data.error(0), 1e-12);
  }
}

}  // namespace
}  // namespace mp
