// Tests for the PTG runtime: dataflow correctness for chain and
// fan-out/reduction graphs (the paper's Fig. 1 / Fig. 2 shapes), remote
// activations across ranks, priorities, scheduler policies, tracing, and
// API misuse detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "ptg/context.h"
#include "ptg/scheduler.h"
#include "ptg/taskpool.h"
#include "ptg/trace.h"
#include "vc/cluster.h"

namespace mp::ptg {
namespace {

// Helper: enumerate instances p0 in [0, n) owned by round-robin rank.
std::function<std::vector<Params>(int)> round_robin(int n, int nranks) {
  return [n, nranks](int rank) {
    std::vector<Params> out;
    for (int i = rank; i < n; i += nranks) out.push_back(params_of(i));
    return out;
  };
}

TEST(Taskpool, ValidateCatchesMissingPieces) {
  Taskpool pool;
  TaskClass c;
  c.name = "broken";
  c.rank_of = [](const Params&) { return 0; };
  c.num_task_inputs = [](const Params&) { return 0; };
  // missing enumerate_rank and body
  pool.add_class(std::move(c));
  EXPECT_THROW(pool.validate(), InvalidArgument);
}

TEST(Taskpool, FindByName) {
  Taskpool pool;
  TaskClass c;
  c.name = "alpha";
  c.rank_of = [](const Params&) { return 0; };
  c.num_task_inputs = [](const Params&) { return 0; };
  c.enumerate_rank = [](int) { return std::vector<Params>{}; };
  c.body = [](TaskCtx&) {};
  const auto id = pool.add_class(std::move(c));
  EXPECT_EQ(pool.find("alpha"), id);
  EXPECT_EQ(pool.find("beta"), -1);
}

TEST(TaskKey, HashAndEquality) {
  TaskKey a{1, params_of(2, 3, 4)};
  TaskKey b{1, params_of(2, 3, 4)};
  TaskKey c{1, params_of(2, 3, 5)};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(TaskKeyHash{}(a), TaskKeyHash{}(b));
}

// --- single-rank independent tasks ---

TEST(Context, ExecutesAllStartupTasks) {
  vc::Cluster cluster(1);
  std::atomic<int> count{0};
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "work";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(100, 1);
    c.body = [&](TaskCtx&) { count.fetch_add(1); };
    pool.add_class(std::move(c));
    Options opts;
    opts.num_workers = 4;
    Context ctx(rctx, pool, opts);
    ctx.run();
    EXPECT_EQ(ctx.tasks_executed(), 100u);
    EXPECT_EQ(ctx.expected_tasks(), 100u);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(Context, EmptyPoolTerminates) {
  vc::Cluster cluster(2);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "none";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = [](int) { return std::vector<Params>{}; };
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Context ctx(rctx, pool);
    ctx.run();
    EXPECT_EQ(ctx.tasks_executed(), 0u);
  });
}

// --- the Fig. 1 shape: DFILL -> chain of GEMM-like steps -> SINK ---

struct ChainFixtureResult {
  std::vector<double> finals;
};

ChainFixtureResult run_chain(int nranks, int chains, int len,
                             bool spread_ranks, Options opts = {}) {
  ChainFixtureResult result;
  result.finals.assign(static_cast<size_t>(chains), 0.0);
  std::mutex mu;

  vc::Cluster cluster(nranks);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    // Ownership: whole chain on one rank, or each step on (L1+L2)%nranks.
    auto step_rank = [=](const Params& p) {
      return spread_ranks ? (p[0] + p[1]) % nranks : p[0] % nranks;
    };

    TaskClass step;
    step.name = "STEP";
    step.rank_of = step_rank;
    step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    step.enumerate_rank = [=](int rank) {
      std::vector<Params> out;
      for (int l1 = 0; l1 < chains; ++l1) {
        for (int l2 = 0; l2 < len; ++l2) {
          const Params p = params_of(l1, l2);
          if (step_rank(p) == rank) out.push_back(p);
        }
      }
      return out;
    };
    step.priority = [=](const Params& p) {
      return static_cast<double>(chains - p[0]);
    };
    step.body = [](TaskCtx& t) {
      DataBuf buf;
      if (t.params()[1] == 0) {
        buf = make_buf(1, static_cast<double>(t.params()[0]));
      } else {
        buf = t.take_input(0);
        (*buf)[0] += 1.0;
      }
      t.set_output(0, std::move(buf));
    };

    TaskClass sink;
    sink.name = "SINK";
    sink.rank_of = [=](const Params& p) { return p[0] % nranks; };
    sink.num_task_inputs = [](const Params&) { return 1; };
    sink.enumerate_rank = [=](int rank) {
      std::vector<Params> out;
      for (int l1 = rank; l1 < chains; l1 += nranks) out.push_back(params_of(l1));
      return out;
    };
    sink.body = [&](TaskCtx& t) {
      std::lock_guard lock(mu);
      result.finals[static_cast<size_t>(t.params()[0])] = (*t.input(0))[0];
    };

    const auto step_id = pool.add_class(std::move(step));
    const auto sink_id = pool.add_class(std::move(sink));
    auto& step_ref = pool.mutable_cls(step_id);
    step_ref.route_outputs = [=](const Params& p, std::vector<OutRoute>& r) {
      if (p[1] < len - 1) {
        r.push_back({TaskKey{step_id, params_of(p[0], p[1] + 1)}, 0, 0});
      } else {
        r.push_back({TaskKey{sink_id, params_of(p[0])}, 0, 0});
      }
    };

    Context ctx(rctx, pool, opts);
    ctx.run();
  });
  return result;
}

TEST(Context, ChainDataflowSingleRank) {
  const auto r = run_chain(1, 5, 10, false);
  for (int l1 = 0; l1 < 5; ++l1) {
    EXPECT_DOUBLE_EQ(r.finals[static_cast<size_t>(l1)], l1 + 9.0);
  }
}

TEST(Context, ChainDataflowMultiRankLocalChains) {
  const auto r = run_chain(4, 8, 20, false);
  for (int l1 = 0; l1 < 8; ++l1) {
    EXPECT_DOUBLE_EQ(r.finals[static_cast<size_t>(l1)], l1 + 19.0);
  }
}

TEST(Context, ChainDataflowCrossRankEveryStep) {
  // Every hop crosses ranks: stresses remote activation payloads.
  const auto r = run_chain(3, 6, 12, true);
  for (int l1 = 0; l1 < 6; ++l1) {
    EXPECT_DOUBLE_EQ(r.finals[static_cast<size_t>(l1)], l1 + 11.0);
  }
}

TEST(Context, ChainWithManyWorkersAndStealing) {
  Options opts;
  opts.num_workers = 4;
  opts.policy = SchedPolicy::kStealing;
  const auto r = run_chain(2, 16, 30, false, opts);
  EXPECT_DOUBLE_EQ(r.finals[0], 29.0);
  EXPECT_DOUBLE_EQ(r.finals[1], 30.0);
}

// --- the Fig. 2 shape: parallel producers -> reduction ---

TEST(Context, FanInReduction) {
  const int nranks = 2, producers = 32;
  std::atomic<double> total{0.0};
  vc::Cluster cluster(nranks);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass prod;
    prod.name = "PROD";
    prod.rank_of = [=](const Params& p) { return p[0] % nranks; };
    prod.num_task_inputs = [](const Params&) { return 0; };
    prod.enumerate_rank = round_robin(producers, nranks);
    prod.body = [](TaskCtx& t) {
      t.set_output(0, make_buf(1, static_cast<double>(t.params()[0])));
    };

    TaskClass red;
    red.name = "RED";
    red.rank_of = [](const Params&) { return 0; };
    red.num_task_inputs = [=](const Params&) { return producers; };
    red.enumerate_rank = [](int rank) {
      return rank == 0 ? std::vector<Params>{params_of(0)}
                       : std::vector<Params>{};
    };
    red.body = [&](TaskCtx& t) {
      double s = 0.0;
      for (int i = 0; i < producers; ++i) s += (*t.input(i))[0];
      total.store(s);
    };

    const auto prod_id = pool.add_class(std::move(prod));
    const auto red_id = pool.add_class(std::move(red));
    auto& pr = pool.mutable_cls(prod_id);
    pr.route_outputs = [=](const Params& p, std::vector<OutRoute>& r) {
      r.push_back({TaskKey{red_id, params_of(0)},
                   static_cast<int8_t>(p[0]), 0});
    };

    Options opts;
    opts.num_workers = 3;
    Context ctx(rctx, pool, opts);
    ctx.run();
  });
  EXPECT_DOUBLE_EQ(total.load(), producers * (producers - 1) / 2.0);
}

// --- priorities & scheduling order ---

std::vector<int> run_priority_order(SchedPolicy policy, bool use_priorities) {
  std::vector<int> order;
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "T";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(10, 1);
    c.priority = [](const Params& p) { return static_cast<double>(p[0]); };
    c.body = [&](TaskCtx& t) { order.push_back(t.params()[0]); };
    pool.add_class(std::move(c));
    Options opts;
    opts.num_workers = 1;  // deterministic execution order
    opts.policy = policy;
    opts.use_priorities = use_priorities;
    Context ctx(rctx, pool, opts);
    ctx.run();
  });
  return order;
}

TEST(Context, PrioritySchedulerRunsHighFirst) {
  const auto order = run_priority_order(SchedPolicy::kPriority, true);
  std::vector<int> expect{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
}

TEST(Context, DisabledPrioritiesFallBackToFifo) {
  const auto order = run_priority_order(SchedPolicy::kPriority, false);
  std::vector<int> expect{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expect);
}

TEST(Context, FifoPolicyIgnoresPriorities) {
  const auto order = run_priority_order(SchedPolicy::kFifo, true);
  std::vector<int> expect{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expect);
}

TEST(Context, LifoPolicyRunsNewestFirst) {
  const auto order = run_priority_order(SchedPolicy::kLifo, true);
  std::vector<int> expect{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
}

TEST(Scheduler, StealingMovesWorkBetweenWorkers) {
  auto s = Scheduler::create(SchedPolicy::kStealing, 2);
  ReadyTask t;
  t.key = TaskKey{0, params_of(1)};
  s->push(std::move(t), 0);  // homed on worker 0
  ReadyTask out;
  EXPECT_TRUE(s->try_pop(out, 1));  // worker 1 steals it
  EXPECT_EQ(s->steals(), 1u);
  EXPECT_FALSE(s->try_pop(out, 1));
}

// --- per-worker heaps (kPriority / kFifo / kLifo) with several workers ---

constexpr SchedPolicy kHeapPolicies[] = {
    SchedPolicy::kPriority, SchedPolicy::kFifo, SchedPolicy::kLifo};

ReadyTask heap_task(int id, double priority = 0.0) {
  ReadyTask t;
  t.priority = priority;
  t.seq = static_cast<uint64_t>(id);
  t.key = TaskKey{0, params_of(id)};
  return t;
}

TEST(Scheduler, NonWorkerPushesReachEveryWorkerHeap) {
  for (auto policy : kHeapPolicies) {
    SCOPED_TRACE(to_string(policy));
    constexpr int kWorkers = 3;
    auto s = Scheduler::create(policy, kWorkers);
    // Single pushes and one batch, all from a non-worker thread: each
    // worker then finds work in its own heap and never has to steal.
    for (int i = 0; i < kWorkers; ++i) s->push(heap_task(i), -1);
    std::vector<ReadyTask> batch;
    for (int i = 0; i < 2 * kWorkers; ++i) batch.push_back(heap_task(10 + i));
    s->push_batch(std::move(batch), -1);
    ReadyTask out;
    for (int round = 0; round < 3; ++round) {
      for (int w = 0; w < kWorkers; ++w) {
        EXPECT_TRUE(s->try_pop(out, w)) << "worker " << w;
      }
    }
    EXPECT_EQ(s->steals(), 0u);
    EXPECT_EQ(s->size(), 0u);
  }
}

TEST(Scheduler, NonWorkerPopDrainsEveryHeapIncludingHeapZero) {
  for (auto policy : kHeapPolicies) {
    SCOPED_TRACE(to_string(policy));
    constexpr int kWorkers = 3;
    auto s = Scheduler::create(policy, kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      s->push(heap_task(2 * w), w);
      s->push(heap_task(2 * w + 1), w);
    }
    std::vector<ReadyTask> got;
    EXPECT_EQ(s->harvest(got, 100), 2u * kWorkers);
    std::vector<int> ids;
    for (const auto& t : got) ids.push_back(t.key.p[0]);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    ReadyTask out;
    EXPECT_FALSE(s->try_pop(out, -1));
    EXPECT_EQ(s->size(), 0u);
  }
}

TEST(Scheduler, StealTakesPeersHighestPriorityTask) {
  auto s = Scheduler::create(SchedPolicy::kPriority, 2);
  s->push(heap_task(0, 1.0), 0);
  s->push(heap_task(1, 5.0), 0);
  s->push(heap_task(2, 3.0), 0);
  ReadyTask out;
  ASSERT_TRUE(s->try_pop(out, 1));  // worker 1's heap is empty: steal
  EXPECT_EQ(out.key.p[0], 1);
  EXPECT_EQ(out.priority, 5.0);
  const SchedStats st = s->stats();
  EXPECT_EQ(st.steals, 1u);
  EXPECT_GE(st.steal_attempts, st.steals);
  EXPECT_EQ(st.validate(), "");
  // The owner still pops its own heap in priority order.
  ASSERT_TRUE(s->try_pop(out, 0));
  EXPECT_EQ(out.key.p[0], 2);
  ASSERT_TRUE(s->try_pop(out, 0));
  EXPECT_EQ(out.key.p[0], 0);
  EXPECT_EQ(s->steals(), 1u);
}

TEST(Scheduler, SizeIsExactAtQuiescence) {
  for (auto policy : kHeapPolicies) {
    SCOPED_TRACE(to_string(policy));
    constexpr int kWorkers = 3;
    auto s = Scheduler::create(policy, kWorkers);
    int id = 0;
    for (int w = -1; w < kWorkers; ++w) {
      s->push(heap_task(id++), w);
      std::vector<ReadyTask> batch;
      for (int i = 0; i < 4; ++i) batch.push_back(heap_task(id++));
      s->push_batch(std::move(batch), w);
    }
    EXPECT_EQ(s->size(), static_cast<size_t>(id));
    ReadyTask out;
    size_t popped = 0;
    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_TRUE(s->try_pop(out, w));
      ++popped;
      EXPECT_EQ(s->size(), static_cast<size_t>(id) - popped);
    }
    // One worker drains everything, its own heap first then by stealing.
    while (s->try_pop(out, 1)) ++popped;
    EXPECT_EQ(popped, static_cast<size_t>(id));
    EXPECT_EQ(s->size(), 0u);
    EXPECT_EQ(s->stats().validate(), "");
  }
}

// With one worker there is one heap, and the heap numbers tasks in push
// order whoever pushes them: worker and non-worker pushes, single and
// batched, and the startup frontier interleave into exact FIFO / LIFO
// order. Any seq the caller set is overwritten.
TEST(Scheduler, OneWorkerOrderIsPushOrderAcrossMixedPushes) {
  for (auto policy : {SchedPolicy::kFifo, SchedPolicy::kLifo,
                      SchedPolicy::kPriority}) {
    SCOPED_TRACE(to_string(policy));
    auto s = Scheduler::create(policy, 1);
    int id = 0;
    auto task = [&id] {
      ReadyTask t = heap_task(id++);
      t.seq = 1000 - static_cast<uint64_t>(id);  // deliberately reversed
      return t;
    };
    std::vector<ReadyTask> startup;
    for (int i = 0; i < 3; ++i) startup.push_back(task());
    s->push_startup(std::move(startup));
    for (int round = 0; round < 3; ++round) {
      s->push(task(), 0);
      s->push(task(), -1);
      std::vector<ReadyTask> mine, theirs;
      for (int i = 0; i < 2; ++i) mine.push_back(task());
      s->push_batch(std::move(mine), 0);
      for (int i = 0; i < 3; ++i) theirs.push_back(task());
      s->push_batch(std::move(theirs), -1);
    }
    std::vector<int> got;
    ReadyTask out;
    while (s->try_pop(out, 0)) got.push_back(out.key.p[0]);
    std::vector<int> want(static_cast<size_t>(id));
    for (int i = 0; i < id; ++i) want[static_cast<size_t>(i)] = i;
    if (policy == SchedPolicy::kLifo) std::reverse(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

// The startup frontier is dealt by parameter tuple: tasks of different
// classes with equal parameters share a heap, and every task lands once.
TEST(Scheduler, StartupDealKeepsEqualParametersTogether) {
  constexpr int kWorkers = 3, kPairs = 30;
  auto s = Scheduler::create(SchedPolicy::kPriority, kWorkers);
  std::vector<ReadyTask> startup;
  for (int16_t cls = 0; cls < 2; ++cls) {
    for (int i = 0; i < kPairs; ++i) {
      ReadyTask t;
      t.key = TaskKey{cls, params_of(i / 5, i % 5)};
      startup.push_back(std::move(t));
    }
  }
  s->push_startup(std::move(startup));
  EXPECT_EQ(s->size(), 2u * kPairs);
  std::map<Params, int> heap_of;
  std::vector<int> per_heap(kWorkers, 0);
  int stolen = 0;
  ReadyTask out;
  for (int w = 0; w < kWorkers; ++w) {
    // Worker w pops its own heap until its first steal, which proves heap
    // w empty; the stolen task's heap is not known, so it is only counted.
    const uint64_t steals_before = s->steals();
    while (s->try_pop(out, w)) {
      if (s->steals() != steals_before) {
        ++stolen;
        break;
      }
      auto [it, fresh] = heap_of.emplace(out.key.p, w);
      EXPECT_EQ(it->second, w) << "pair split across heaps";
      ++per_heap[static_cast<size_t>(w)];
    }
  }
  EXPECT_EQ(per_heap[0] + per_heap[1] + per_heap[2] + stolen, 2 * kPairs);
  EXPECT_LT(stolen, kWorkers);
  for (int n : per_heap) EXPECT_GT(n, 0) << "a heap got no work";
}

TEST(DataBufPool, OverwriteBufferPrefersARecycledVectorOfTheSameSize) {
  DataBuf a = make_buf_pooled(5, 1.0);
  DataBuf b = make_buf_pooled(9, 2.0);
  const double* five = a->data();
  a.reset();
  b.reset();  // both back in this thread's pool, the size-9 one on top
  DataBuf c = make_buf_for_overwrite(5);
  EXPECT_EQ(c->size(), 5u);
  EXPECT_EQ(c->data(), five) << "the size-5 vector should be reused as is";
  EXPECT_EQ((*c)[4], 1.0) << "contents are left as they were";
  DataBuf d = make_buf_for_overwrite(3);
  EXPECT_EQ(d->size(), 3u);
  // make_buf_pooled still zero-fills whatever it recycles.
  d.reset();
  DataBuf e = make_buf_pooled(3);
  EXPECT_EQ(*e, std::vector<double>(3, 0.0));
}

TEST(Scheduler, PolicyNames) {
  EXPECT_STREQ(to_string(SchedPolicy::kPriority), "priority");
  EXPECT_STREQ(to_string(SchedPolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(SchedPolicy::kLifo), "lifo");
  EXPECT_STREQ(to_string(SchedPolicy::kStealing), "stealing");
}

// --- tracing ---

TEST(Context, TracingRecordsEveryTask) {
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "traced";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(25, 1);
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Options opts;
    opts.enable_tracing = true;
    opts.num_workers = 2;
    Context ctx(rctx, pool, opts);
    ctx.run();
    EXPECT_EQ(ctx.trace().size(), 25u);
    for (const auto& e : ctx.trace().events()) {
      EXPECT_LE(e.t_start, e.t_end);
      EXPECT_EQ(e.cls, 0);
      EXPECT_FALSE(e.is_comm);
    }
  });
}

TEST(Context, TracingDisabledByDefault) {
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "untraced";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(5, 1);
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Context ctx(rctx, pool);
    ctx.run();
    EXPECT_TRUE(ctx.trace().empty());
  });
}

// --- error paths ---

TEST(Context, RunTwiceThrows) {
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "once";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = [](int) { return std::vector<Params>{}; };
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Context ctx(rctx, pool);
    ctx.run();
    EXPECT_THROW(ctx.run(), InvalidArgument);
  });
}

TEST(Context, MissingOutputIsDiagnosed) {
  vc::Cluster cluster(1);
  EXPECT_THROW(
      cluster.run([&](vc::RankCtx& rctx) {
        Taskpool pool;
        TaskClass a;
        a.name = "forgetful";
        a.rank_of = [](const Params&) { return 0; };
        a.num_task_inputs = [](const Params&) { return 0; };
        a.enumerate_rank = [](int) {
          return std::vector<Params>{params_of(0)};
        };
        a.body = [](TaskCtx&) { /* forgot set_output */ };

        TaskClass b;
        b.name = "victim";
        b.rank_of = [](const Params&) { return 0; };
        b.num_task_inputs = [](const Params&) { return 1; };
        b.enumerate_rank = [](int) {
          return std::vector<Params>{params_of(0)};
        };
        b.body = [](TaskCtx&) {};

        const auto a_id = pool.add_class(std::move(a));
        const auto b_id = pool.add_class(std::move(b));
        auto& ar = pool.mutable_cls(a_id);
        ar.route_outputs = [=](const Params&, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{b_id, params_of(0)}, 0, 0});
        };
        Context ctx(rctx, pool);
        ctx.run();
      }),
      InvalidArgument);
}

TEST(Context, DepositIntoAnUndeclaredInputSlotNamesTheConsumer) {
  // MPV005 caught at run time, with the static verifier off: a route
  // names input slot 1 of a consumer that declares one task input. The
  // deposit itself must fail and name the consumer and the slot; counting
  // it would activate the consumer with slot 0 never filled.
  std::optional<std::string> saved;
  if (const char* v = std::getenv("MP_VERIFY")) saved = v;
  ::unsetenv("MP_VERIFY");
  struct Restore {
    std::optional<std::string>& v;
    ~Restore() {
      if (v) ::setenv("MP_VERIFY", v->c_str(), 1);
    }
  } restore{saved};

  vc::Cluster cluster(1);
  std::atomic<int> sink_runs{0};
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Taskpool pool;
      TaskClass src;
      src.name = "src";
      src.rank_of = [](const Params&) { return 0; };
      src.num_task_inputs = [](const Params&) { return 0; };
      src.enumerate_rank = [](int) {
        return std::vector<Params>{params_of(0)};
      };
      src.body = [](TaskCtx& t) { t.set_output(0, make_buf(1, 1.0)); };
      TaskClass sink;
      sink.name = "sink";
      sink.rank_of = [](const Params&) { return 0; };
      sink.num_task_inputs = [](const Params&) { return 1; };
      sink.enumerate_rank = [](int) {
        return std::vector<Params>{params_of(3, 4)};
      };
      sink.body = [&sink_runs](TaskCtx&) { ++sink_runs; };
      const auto src_id = pool.add_class(std::move(src));
      const auto sink_id = pool.add_class(std::move(sink));
      pool.mutable_cls(src_id).route_outputs =
          [sink_id](const Params&, std::vector<OutRoute>& r) {
            r.push_back({TaskKey{sink_id, params_of(3, 4)}, 1, 0});
          };
      Context ctx(rctx, pool);
      ctx.run();
    });
    FAIL() << "expected the deposit to raise InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sink(3,4,0)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("input slot 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 task input"), std::string::npos) << msg;
  }
  EXPECT_EQ(sink_runs.load(), 0);
}

TEST(Context, AbortPropagationUnderHighLatencyFabric) {
  // A task fails on one rank while every activation and the abort
  // broadcast itself crawl through a high-latency fabric. All ranks must
  // still unwind promptly instead of hanging in their comm loops.
  vc::FabricConfig cfg;
  cfg.latency_us = 500.0;
  vc::Cluster cluster(3, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      cluster.run([&](vc::RankCtx& rctx) {
        Taskpool pool;
        TaskClass c;
        c.name = "hop";
        c.rank_of = [](const Params& p) { return p[0] % 3; };
        c.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
        c.enumerate_rank = [](int rank) {
          std::vector<Params> out;
          for (int i = rank; i < 12; i += 3) out.push_back(params_of(i));
          return out;
        };
        c.body = [](TaskCtx& t) {
          if (t.params()[0] == 4) throw std::runtime_error("injected");
          t.set_output(0, make_buf(1, 1.0));
        };
        const auto id = pool.add_class(std::move(c));
        pool.mutable_cls(id).route_outputs =
            [id](const Params& p, std::vector<OutRoute>& r) {
              if (p[0] < 11) {
                r.push_back({TaskKey{id, params_of(p[0] + 1)}, 0, 0});
              }
            };
        Context ctx(rctx, pool);
        ctx.run();
      }),
      std::exception);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(20));
}

TEST(Context, WatchdogTurnsLostActivationIntoStateError) {
  // Every cross-rank activation is dropped by the fabric, so without the
  // watchdog both ranks would wait for activations forever. The watchdog
  // must surface a StateError carrying a diagnostic dump instead.
  vc::FabricConfig cfg;
  cfg.faults.drop_prob = 1.0;
  vc::Cluster cluster(2, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Taskpool pool;
      TaskClass c;
      c.name = "hop";
      c.rank_of = [](const Params& p) { return p[0] % 2; };
      c.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
      c.enumerate_rank = [](int rank) {
        std::vector<Params> out;
        for (int i = rank; i < 6; i += 2) out.push_back(params_of(i));
        return out;
      };
      c.body = [](TaskCtx& t) {
        t.set_output(0, make_buf(1, static_cast<double>(t.params()[0])));
      };
      const auto id = pool.add_class(std::move(c));
      pool.mutable_cls(id).route_outputs =
          [id](const Params& p, std::vector<OutRoute>& r) {
            if (p[0] < 5) {
              r.push_back({TaskKey{id, params_of(p[0] + 1)}, 0, 0});
            }
          };
      Options opts;
      opts.watchdog_timeout_ms = 200.0;
      Context ctx(rctx, pool, opts);
      ctx.run();
    });
    FAIL() << "expected the watchdog to raise StateError";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("PTG watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("executed="), std::string::npos) << msg;
    EXPECT_NE(msg.find("pending_deposit_keys="), std::string::npos) << msg;
    EXPECT_NE(msg.find("outbox_depth="), std::string::npos) << msg;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(20));
}

TEST(Context, WatchdogDumpNamesTheRowsItWaitsOn) {
  // The lost-activation stall above, read for what it waits on: every hop
  // after the first has one input, sent from the other rank and dropped,
  // so the dump must name an unactivated hop row at 0 of 1 inputs.
  vc::FabricConfig cfg;
  cfg.faults.drop_prob = 1.0;
  vc::Cluster cluster(2, cfg);
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Taskpool pool;
      TaskClass c;
      c.name = "hop";
      c.rank_of = [](const Params& p) { return p[0] % 2; };
      c.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
      c.enumerate_rank = [](int rank) {
        std::vector<Params> out;
        for (int i = rank; i < 6; i += 2) out.push_back(params_of(i));
        return out;
      };
      c.body = [](TaskCtx& t) { t.set_output(0, make_buf(1, 1.0)); };
      const auto id = pool.add_class(std::move(c));
      pool.mutable_cls(id).route_outputs =
          [id](const Params& p, std::vector<OutRoute>& r) {
            if (p[0] < 5) {
              r.push_back({TaskKey{id, params_of(p[0] + 1)}, 0, 0});
            }
          };
      Options opts;
      opts.watchdog_timeout_ms = 200.0;
      Context ctx(rctx, pool, opts);
      ctx.run();
    });
    FAIL() << "expected the watchdog to raise StateError";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    bool named = false;
    for (int i = 1; i <= 5; ++i) {
      named |= msg.find("hop(" + std::to_string(i) + ",0,0) 0/1") !=
               std::string::npos;
    }
    EXPECT_TRUE(named) << msg;
  }
}

TEST(Context, ZeroWorkersRejected) {
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "x";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = [](int) { return std::vector<Params>{}; };
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Options opts;
    opts.num_workers = 0;
    EXPECT_THROW(Context(rctx, pool, opts), InvalidArgument);
  });
}

// --- trace analysis unit tests ---

TEST(Trace, SpanAndBusy) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 1, 0, {0, 0, 0}, 0.5, 2.0, false});
  EXPECT_DOUBLE_EQ(tr.span(), 2.0);
  EXPECT_DOUBLE_EQ(tr.busy_time(), 2.5);
  EXPECT_EQ(tr.num_rows(), 2u);
  EXPECT_NEAR(tr.idle_fraction(), 1.0 - 2.5 / 4.0, 1e-12);
}

TEST(Trace, NormalizeShiftsToZero) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 10.0, 11.0, false});
  tr.normalize();
  EXPECT_DOUBLE_EQ(tr.events()[0].t_start, 0.0);
  EXPECT_DOUBLE_EQ(tr.events()[0].t_end, 1.0);
}

TEST(Trace, StartupIdleMeasuresLateFirstTasks) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 1, 0, {0, 0, 0}, 4.0, 5.0, false});
  EXPECT_DOUBLE_EQ(tr.mean_startup_idle(), 2.0);
}

TEST(Trace, CommOverlapFraction) {
  Trace tr;
  // comm event [0,2] on rank 0; compute [1,2] covers half of it.
  tr.add({0, -1, -1, {0, 0, 0}, 0.0, 2.0, true});
  tr.add({0, 0, 0, {0, 0, 0}, 1.0, 2.0, false});
  EXPECT_NEAR(tr.comm_overlap_fraction(), 0.5, 1e-12);
}

TEST(Trace, CommOverlapIgnoresOtherRanksCompute) {
  Trace tr;
  tr.add({0, -1, -1, {0, 0, 0}, 0.0, 2.0, true});
  tr.add({1, 0, 0, {0, 0, 0}, 0.0, 2.0, false});  // different rank
  EXPECT_DOUBLE_EQ(tr.comm_overlap_fraction(), 0.0);
}

TEST(Trace, AsciiGanttRendersRowsPerWorker) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 1, 1, {0, 0, 0}, 1.0, 2.0, false});
  tr.add({1, 0, 0, {0, 0, 0}, 0.0, 2.0, false});
  const std::string g = tr.ascii_gantt(20, {'G', 'S'});
  EXPECT_NE(g.find("node 0:"), std::string::npos);
  EXPECT_NE(g.find("node 1:"), std::string::npos);
  EXPECT_NE(g.find('G'), std::string::npos);
  EXPECT_NE(g.find('S'), std::string::npos);
}

TEST(Trace, TimeByClassAggregates) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 0, 0, {0, 0, 0}, 1.0, 3.0, false});
  tr.add({0, 0, 1, {0, 0, 0}, 3.0, 4.0, false});
  const auto by = tr.time_by_class();
  EXPECT_DOUBLE_EQ(by.at(0), 3.0);
  EXPECT_DOUBLE_EQ(by.at(1), 1.0);
}

TEST(Trace, JsonContainsClassNames)
{
  Trace tr;
  tr.add({0, 0, 0, {1, 2, 3}, 0.0, 1.0, false});
  std::ostringstream os;
  tr.to_json(os, {"GEMM"});
  EXPECT_NE(os.str().find("\"GEMM\""), std::string::npos);
  EXPECT_NE(os.str().find("[1,2,3]"), std::string::npos);
}

}  // namespace
}  // namespace mp::ptg
