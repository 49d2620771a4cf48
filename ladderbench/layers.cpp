// Per-layer probes: each times one layer's public calls in isolation, at
// the workload's tile space and shape, so its unit cost can be set beside
// the counts the traced ladder pass reports.
#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>

#include "bench.h"
#include "cc/integration.h"
#include "ga/hash_block.h"
#include "linalg/gemm.h"
#include "linalg/sort4.h"
#include "ptg/context.h"
#include "sim/ptg_sim.h"
#include "sim/task_graph.h"
#include "support/rng.h"
#include "tce/inspector.h"
#include "tce/reference_exec.h"

namespace lb {

using namespace mp;

namespace {

std::vector<double> random_vec(size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Per-pass totals of the serial replay of one iteration's plan.
struct Replay {
  double gemm_ms = 0.0, sort_ms = 0.0, get_ms = 0.0, acc_ms = 0.0;
  double sort_bytes = 0.0;
  uint64_t gets = 0, accs = 0;
};

/// Replays the plan chain by chain on the calling thread, timing each
/// public call separately: GET_HASH_BLOCK of every GEMM operand, the GEMM,
/// the guarded sorts into the chain's output, and ADD_HASH_BLOCK.
Replay replay_plan(const tce::ChainPlan& plan, const tce::StoreList& stores) {
  Replay r;
  std::vector<double> a, b, c, sorted;
  for (const auto& ch : plan.chains) {
    c.assign(static_cast<size_t>(ch.c_elems()), 0.0);
    for (const auto& g : ch.gemms) {
      const auto& as = stores[static_cast<size_t>(ch.a_store)];
      const auto& bs = stores[static_cast<size_t>(ch.b_store)];
      a.resize(static_cast<size_t>(g.m) * static_cast<size_t>(g.k));
      b.resize(static_cast<size_t>(g.k) * static_cast<size_t>(g.n));
      auto t0 = Clock::now();
      ga::get_hash_block(*as.ga, as.shape->index(), g.a_key, a.data());
      ga::get_hash_block(*bs.ga, bs.shape->index(), g.b_key, b.data());
      r.get_ms += ms_since(t0);
      r.gets += 2;
      t0 = Clock::now();
      linalg::dgemm(g.transa, g.transb, static_cast<size_t>(g.m),
                    static_cast<size_t>(g.n), static_cast<size_t>(g.k),
                    g.alpha, a.data(), static_cast<size_t>(g.lda()), b.data(),
                    static_cast<size_t>(g.ldb()), 1.0, c.data(),
                    static_cast<size_t>(ch.m));
      r.gemm_ms += ms_since(t0);
    }
    sorted.assign(c.size(), 0.0);
    auto t0 = Clock::now();
    for (const auto& s : ch.sorts) {
      linalg::sort_4_acc(c.data(), sorted.data(), ch.c_dims, s.perm, s.factor);
    }
    r.sort_ms += ms_since(t0);
    r.sort_bytes += 2.0 * sizeof(double) * static_cast<double>(c.size()) *
                    static_cast<double>(ch.sorts.size());
    const auto& rs = stores[static_cast<size_t>(ch.r_store)];
    t0 = Clock::now();
    ga::add_hash_block(*rs.ga, rs.shape->index(), ch.c_key, sorted.data());
    r.acc_ms += ms_since(t0);
    ++r.accs;
  }
  return r;
}

/// GFLOP/s of the plan's most frequent GEMM shape, one thread.
double gemm_gflops(const tce::ChainPlan& plan, int reps) {
  std::map<std::tuple<int, int, int, char, char>, int> freq;
  for (const auto& ch : plan.chains)
    for (const auto& g : ch.gemms) ++freq[{g.m, g.n, g.k, g.transa, g.transb}];
  const auto top = std::max_element(
      freq.begin(), freq.end(),
      [](const auto& x, const auto& y) { return x.second < y.second; });
  const auto [m, n, k, ta, tb] = top->first;
  Rng rng(1);
  const auto a = random_vec(static_cast<size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<size_t>(k) * n, rng);
  auto c = random_vec(static_cast<size_t>(m) * n, rng);
  const size_t lda = (ta == 'T') ? static_cast<size_t>(k) : static_cast<size_t>(m);
  const size_t ldb = (tb == 'T') ? static_cast<size_t>(n) : static_cast<size_t>(k);
  const double flops = linalg::gemm_flops(static_cast<size_t>(m),
                                          static_cast<size_t>(n),
                                          static_cast<size_t>(k));
  // Each batch runs ~20 ms of calls; the median batch rate is reported.
  int calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i)
      linalg::dgemm(ta, tb, static_cast<size_t>(m), static_cast<size_t>(n),
                    static_cast<size_t>(k), 1.0, a.data(), lda, b.data(), ldb,
                    0.5, c.data(), static_cast<size_t>(m));
    if (ms_since(t0) > 2.0 || calls > (1 << 24)) break;
    calls *= 2;
  }
  calls *= 10;
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i)
      linalg::dgemm(ta, tb, static_cast<size_t>(m), static_cast<size_t>(n),
                    static_cast<size_t>(k), 1.0, a.data(), lda, b.data(), ldb,
                    0.5, c.data(), static_cast<size_t>(m));
    rates.push_back(flops * calls / (ms_since(t0) * 1e-3) / 1e9);
  }
  return median(rates);
}

}  // namespace

void probe_data_layers(const WorkloadSpec& w, const Sizes& sz, uint64_t seed,
                       Spans& spans, Report& out) {
  Problem p(workload_space(w, sz), w.shape.ranks, derive_seed(seed, Stream::kFill));
  const tce::ChainPlan plan = workload_plan(w, p, seed);
  const tce::StoreList stores = p.stores();

  std::vector<double> gemm, sort, get_us, acc_us, sort_gbs;
  for (int r = 0; r < std::max(3, sz.probe_reps); ++r) {
    SpanScope span(spans, "replay", "linalg");
    const Replay rp = replay_plan(plan, stores);
    gemm.push_back(rp.gemm_ms);
    sort.push_back(rp.sort_ms);
    sort_gbs.push_back(rp.sort_bytes / (rp.sort_ms * 1e-3) / 1e9);
    get_us.push_back(rp.get_ms * 1e3 / static_cast<double>(rp.gets));
    acc_us.push_back(rp.acc_ms * 1e3 / static_cast<double>(rp.accs));
  }
  const tce::PlanStats st = plan.stats();
  {
    SpanScope span(spans, "gemm_rate", "linalg");
    out.add("linalg.gemm_gflops", gemm_gflops(plan, 5), "GFLOP/s");
  }
  out.add("linalg.serial_gemm_ms", median(gemm), "ms");
  out.add("linalg.serial_sort_ms", median(sort), "ms");
  out.add("linalg.sort4_gbs", median(sort_gbs), "GB/s");
  out.add("linalg.flops", st.total_flops, "count");
  out.add("ga.get_us", median(get_us), "us");
  out.add("ga.acc_us", median(acc_us), "us");
  out.add("ga.bytes", st.read_bytes + st.write_bytes, "bytes");

  // The integration layer's two data steps around every ladder call.
  Rng rng(derive_seed(seed, Stream::kFill));
  const auto dims = p.t_shape.dense_dims();
  const auto tau = random_vec(static_cast<size_t>(dims[0]) * dims[1] *
                                  dims[2] * dims[3], rng);
  std::vector<double> scatter, reconstruct;
  for (int r = 0; r < std::max(3, sz.probe_reps); ++r) {
    auto t0 = Clock::now();
    {
      SpanScope span(spans, "scatter", "cc");
      p.t_shape.scatter_dense(tau, p.t_ga);
    }
    scatter.push_back(ms_since(t0));
    t0 = Clock::now();
    {
      SpanScope span(spans, "reconstruct", "cc");
      const auto dense = cc::reconstruct_dense_residual(p.space, p.r_shape,
                                                        p.r_ga);
      if (dense.empty()) throw std::runtime_error("empty reconstruction");
    }
    reconstruct.push_back(ms_since(t0));
  }
  out.add("cc.scatter_ms", median(scatter), "ms");
  out.add("cc.reconstruct_ms", median(reconstruct), "ms");
}

void probe_tce(const WorkloadSpec& w, const Sizes& sz, uint64_t seed,
               Spans& spans, Report& out) {
  std::vector<double> inspect, build, start, cold, reference;
  for (int r = 0; r < sz.probe_reps; ++r) {
    Problem p(workload_space(w, sz), w.shape.ranks, derive_seed(seed, Stream::kFill));
    auto t0 = Clock::now();
    tce::ChainPlan plan;
    {
      SpanScope span(spans, "inspect", "tce");
      p.plan = tce::inspect_t2_7(p.space, {&p.v_shape, &p.t_shape, &p.r_shape});
      plan = workload_plan(w, p, seed);
    }
    inspect.push_back(ms_since(t0));
    tce::TemplateCache cache;
    t0 = Clock::now();
    std::shared_ptr<tce::PtgTemplate> tpl;
    {
      SpanScope span(spans, "template_build", "tce");
      tpl = build_template(cache, w, p, plan);
    }
    build.push_back(ms_since(t0));
    t0 = Clock::now();
    std::unique_ptr<Session> session;
    {
      SpanScope span(spans, "session_start", "tce");
      session = std::make_unique<Session>(w, p, tpl, false, seed);
    }
    start.push_back(ms_since(t0));
    t0 = Clock::now();
    {
      SpanScope span(spans, "cold_submit", "tce");
      session->submit(p.stores());
    }
    cold.push_back(ms_since(t0));
    p.r_ga.zero();
    t0 = Clock::now();
    {
      SpanScope span(spans, "reference", "tce");
      tce::execute_reference(plan, p.stores());
    }
    reference.push_back(ms_since(t0));
  }
  out.add("tce.inspect_ms", median(inspect), "ms");
  out.add("tce.template_build_ms", median(build), "ms");
  out.add("tce.session_start_ms", median(start), "ms");
  out.add("tce.cold_submit_ms", median(cold), "ms");
  out.add("tce.reference_ms", median(reference), "ms");

  // Steady submit of a near-empty plan at the workload's shape: the
  // per-submission cost of the session path with ~no task work.
  Problem p(sz.empty, w.shape.ranks, derive_seed(seed, Stream::kFill));
  tce::TemplateCache cache;
  const WorkloadSpec plain{w.name, Kind::kFineLocal, w.shape, 1};
  const WorkloadSpec& as = w.kind == Kind::kSkewedSteal ? w : plain;
  Session session(as, p, build_template(cache, as, p, p.plan), false, seed);
  std::vector<double> steady;
  for (int i = 0; i < 3 + 20 * sz.probe_reps; ++i) {
    p.r_ga.zero();
    const auto t0 = Clock::now();
    session.submit(p.stores());
    if (i >= 3) steady.push_back(ms_since(t0));
  }
  out.add("tce.submit_overhead_ms", median(steady), "ms");
}

namespace {

/// Runs `pool` `reps` times on a persistent Context per rank, after one
/// warm-up run; returns rank 0's median wall time per run in microseconds,
/// measured between cluster barriers.
double run_pool_us(int nranks, int workers, int reps,
                   const std::function<ptg::Taskpool()>& make_pool) {
  vc::Cluster cluster(nranks);
  std::vector<double> walls;
  cluster.run([&](vc::RankCtx& rctx) {
    const ptg::Taskpool pool = make_pool();
    ptg::Options opts;
    opts.num_workers = workers;
    opts.persistent = true;
    ptg::Context ctx(rctx, pool, opts);
    for (int i = 0; i <= reps; ++i) {
      rctx.barrier();
      const auto t0 = Clock::now();
      ctx.run();
      rctx.barrier();
      if (rctx.rank() == 0 && i > 0) {
        walls.push_back(std::chrono::duration<double, std::micro>(
                            Clock::now() - t0).count());
      }
      ctx.try_reset_in_band();
    }
  });
  return median(walls);
}

/// `n` independent empty tasks on rank 0.
ptg::Taskpool empty_pool(int n) {
  ptg::Taskpool pool;
  ptg::TaskClass c;
  c.name = "EMPTY";
  c.rank_of = [](const ptg::Params&) { return 0; };
  c.num_task_inputs = [](const ptg::Params&) { return 0; };
  c.enumerate_rank = [n](int rank) {
    std::vector<ptg::Params> ps;
    if (rank == 0) {
      for (int i = 0; i < n; ++i) ps.push_back(ptg::params_of(i));
    }
    return ps;
  };
  c.body = [](ptg::TaskCtx&) {};
  pool.add_class(std::move(c));
  return pool;
}

/// One chain of `n` steps passing a one-element buffer; step i runs on
/// rank i % nranks, so with two ranks every hop crosses the fabric.
ptg::Taskpool chain_pool(int n, int nranks) {
  ptg::Taskpool pool;
  ptg::TaskClass c;
  c.name = "HOP";
  c.rank_of = [nranks](const ptg::Params& p) { return p[1] % nranks; };
  c.num_task_inputs = [](const ptg::Params& p) { return p[1] == 0 ? 0 : 1; };
  c.enumerate_rank = [n, nranks](int rank) {
    std::vector<ptg::Params> ps;
    for (int i = rank; i < n; i += nranks) ps.push_back(ptg::params_of(0, i));
    return ps;
  };
  c.body = [n](ptg::TaskCtx& t) {
    if (t.params()[1] == n - 1) return;
    ptg::DataBuf buf =
        t.params()[1] == 0 ? ptg::make_buf_pooled(1) : t.take_input(0);
    (*buf)[0] += 1.0;
    t.set_output(0, std::move(buf));
  };
  const int16_t id = pool.add_class(std::move(c));
  pool.mutable_cls(id).route_outputs = [n, id](const ptg::Params& p,
                                               std::vector<ptg::OutRoute>& r) {
    if (p[1] < n - 1) r.push_back({ptg::TaskKey{id, ptg::params_of(0, p[1] + 1)}, 0, 0});
  };
  return pool;
}

/// Half a round trip of a raw RankCtx send -> peer mailbox pop, no runtime.
double message_us(int n) {
  vc::Cluster cluster(2);
  double wall_us = 0.0;
  cluster.run([&](vc::RankCtx& rctx) {
    const int peer = 1 - rctx.rank();
    auto recv = [&] {
      while (!rctx.mailbox().pop_wait(std::chrono::microseconds(1000))) {
      }
    };
    rctx.barrier();
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      if (rctx.rank() == 0) {
        rctx.send(peer, 77, vc::Payload(8));
        recv();
      } else {
        recv();
        rctx.send(peer, 77, vc::Payload(8));
      }
    }
    if (rctx.rank() == 0) {
      wall_us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count();
    }
  });
  return wall_us / (2.0 * n);
}

}  // namespace

void probe_ptg_vc(const Sizes& sz, Spans& spans, Report& out) {
  const int reps = 2 + 2 * sz.probe_reps;
  const int n = sz.empty_tasks, hops = sz.hops, remote = sz.remote_hops;
  {
    SpanScope span(spans, "empty_tasks_w1", "ptg");
    out.add("ptg.empty_task_us.w1",
        run_pool_us(1, 1, reps, [n] { return empty_pool(n); }) / n, "us");
  }
  {
    SpanScope span(spans, "empty_tasks_w3", "ptg");
    out.add("ptg.empty_task_us.w3",
        run_pool_us(1, 3, reps, [n] { return empty_pool(n); }) / n, "us");
  }
  {
    SpanScope span(spans, "local_hops", "ptg");
    out.add("ptg.local_hop_us",
        run_pool_us(1, 1, reps, [hops] { return chain_pool(hops, 1); }) / hops,
        "us");
  }
  {
    SpanScope span(spans, "messages", "vc");
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) v.push_back(message_us(remote));
    out.add("vc.msg_us", median(v), "us");
  }
  {
    SpanScope span(spans, "remote_hops", "vc");
    out.add("vc.remote_hop_us",
        run_pool_us(2, 1, reps, [remote] { return chain_pool(remote, 2); }) /
            remote,
        "us");
  }
}

double simulate_seconds(const WorkloadSpec& w, const tce::ChainPlan& plan) {
  sim::GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = w.shape.ranks;
  sim::SimOptions sopts;
  sopts.cores_per_node = w.shape.workers;
  sopts.enable_stealing = w.kind == Kind::kSkewedSteal;
  return sim::simulate_ptg(sim::build_graph(plan, gopts), sopts).makespan;
}

}  // namespace lb
