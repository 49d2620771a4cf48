// Workload table, seeds, statistics, spans and the problem instances.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "cc/integration.h"
#include "cc/model.h"
#include "support/rng.h"
#include "tce/imbalance.h"
#include "tce/inspector.h"
#include "tce/original_exec.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/reference_exec.h"
#include "tce/template_cache.h"

namespace lb {

using namespace mp;

// ---------------------------------------------------------------- workloads

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> table = {
      {"ladder_coarse", Kind::kCoarse, {1, 3}, 9},
      {"t2_7_fine_local", Kind::kFineLocal, {1, 3}, 21},
      {"t2_7_fine_remote", Kind::kFineRemote, {2, 1}, 21},
      {"t2_7_skewed_steal", Kind::kSkewedSteal, {2, 1}, 11},
  };
  for (const auto& w : table) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

Sizes Sizes::smoke() {
  Sizes s;
  s.coarse_no_a = 2;
  s.coarse_nv_a = 4;
  s.coarse_tile = 2;
  s.fine = {2, 2, 3, 3, 2, 1};
  s.empty_tasks = 500;
  s.hops = 200;
  s.remote_hops = 50;
  s.probe_reps = 1;
  return s;
}

tce::TileSpaceSpec coarse_spec(const Sizes& sz) {
  return {sz.coarse_no_a, sz.coarse_no_a, sz.coarse_nv_a, sz.coarse_nv_a,
          sz.coarse_tile, 1};
}

tce::TileSpaceSpec workload_space(const WorkloadSpec& w, const Sizes& sz) {
  return w.kind == Kind::kFineLocal || w.kind == Kind::kFineRemote
             ? sz.fine
             : coarse_spec(sz);
}

uint64_t derive_seed(uint64_t seed, Stream s) {
  // SplitMix64 finalizer over (seed, stream): distinct streams decorrelate.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(s) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- samples

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double rel_error(const std::vector<double>& x, const std::vector<double>& ref) {
  if (x.size() != ref.size()) return INFINITY;
  double diff = 0.0, scale = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x[i] - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  if (!std::isfinite(diff)) return INFINITY;
  return scale > 0.0 ? diff / scale : diff;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, size_t n) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  rows.push_back({name, value, unit, n});
}

double Report::get(const std::string& name) const {
  for (const auto& r : rows) {
    if (r.name == name) return r.value;
  }
  throw std::logic_error("metric " + name + " was not measured");
}

// ---------------------------------------------------------------- spans

int64_t Spans::open(const char* name, const char* layer, int64_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.name = name;
  s.layer = layer;
  s.t0_us = now_us();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Spans::close(int64_t id) {
  if (!enabled_ || id <= 0) return;
  spans_[static_cast<size_t>(id - 1)].t1_us = now_us();
}

void Spans::attach_runtime(int64_t parent, const ptg::Trace& trace,
                           const std::vector<std::string>& class_names) {
  if (!enabled_ || parent <= 0 || trace.empty()) return;
  double first = INFINITY;
  for (const auto& e : trace.events()) first = std::min(first, e.t_start);
  const double base = spans_[static_cast<size_t>(parent - 1)].t0_us;
  for (const auto& e : trace.events()) {
    Span s;
    s.id = static_cast<int64_t>(spans_.size()) + 1;
    s.parent = parent;
    const auto cls = static_cast<size_t>(e.cls);
    s.name = e.is_comm ? "COMM"
                       : (cls < class_names.size() ? class_names[cls] : "TASK");
    s.layer = e.is_comm ? "vc" : "ptg";
    s.t0_us = base + (e.t_start - first) * 1e6;
    s.t1_us = base + (e.t_end - first) * 1e6;
    s.rank = e.rank;
    s.worker = e.worker;
    spans_.push_back(std::move(s));
  }
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  char line[512];
  for (const auto& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\",\"layer\":"
                  "\"%s\",\"t0_us\":%.3f,\"t1_us\":%.3f,\"rank\":%d,"
                  "\"worker\":%d}\n",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.name.c_str(), s.layer,
                  s.t0_us, s.t1_us, s.rank, s.worker);
    os << line;
  }
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------- problem

namespace {

using tce::RangeKind;
constexpr std::array<RangeKind, 4> kVVVV{RangeKind::kVirt, RangeKind::kVirt,
                                         RangeKind::kVirt, RangeKind::kVirt};
constexpr std::array<RangeKind, 4> kVVOO{RangeKind::kVirt, RangeKind::kVirt,
                                         RangeKind::kOcc, RangeKind::kOcc};

void fill_random(ga::GlobalArray& g, Rng& rng) {
  std::vector<double> data(static_cast<size_t>(g.size()));
  for (auto& x : data) x = rng.uniform(-1.0, 1.0);
  g.put(0, g.size(), data.data());
}

std::vector<double> ga_contents(const ga::GlobalArray& g) {
  std::vector<double> out(static_cast<size_t>(g.size()));
  g.get(0, g.size(), out.data());
  return out;
}

}  // namespace

Problem::Problem(const tce::TileSpaceSpec& spec, int nranks,
                 uint64_t fill_seed)
    : cluster(nranks),
      space(spec),
      v_shape(space, kVVVV),
      t_shape(space, kVVOO),
      r_shape(space, kVVOO, /*triangular01=*/true, /*triangular23=*/true),
      v_ga(&cluster, v_shape.ga_size()),
      t_ga(&cluster, t_shape.ga_size()),
      r_ga(&cluster, r_shape.ga_size()),
      plan(tce::inspect_t2_7(space, {&v_shape, &t_shape, &r_shape})) {
  Rng rng(fill_seed);
  fill_random(v_ga, rng);
  fill_random(t_ga, rng);
}

tce::ChainPlan workload_plan(const WorkloadSpec& w, const Problem& p,
                             uint64_t seed) {
  if (w.kind != Kind::kSkewedSteal) return p.plan;
  tce::ImbalanceSpec spec;
  spec.nranks = p.cluster.nranks();
  spec.hot_ranks = {0};
  spec.zipf_alpha = 1.2;
  spec.seed = derive_seed(seed, Stream::kImbalance);
  return tce::make_skewed_plan(p.plan, spec);
}

namespace {

// ---------------------------------------------------------------- coarse

/// MP2 amplitudes t[a,b,i,j] = <ab||ij> / (f_i + f_j - f_a - f_b): the tau
/// the CCSD driver hands the ladder on its first iteration.
std::vector<double> mp2_tau(const cc::SpinOrbitalSystem& sys) {
  const int O = sys.n_occ(), V = sys.n_virt();
  std::vector<double> tau(static_cast<size_t>(V) * V * O * O);
  size_t at = 0;
  for (int a = 0; a < V; ++a)
    for (int b = 0; b < V; ++b)
      for (int i = 0; i < O; ++i)
        for (int j = 0; j < O; ++j) {
          const double den =
              sys.f(i) + sys.f(j) - sys.f(O + a) - sys.f(O + b);
          tau[at++] = sys.v(O + a, O + b, i, j) / den;
        }
  return tau;
}

/// ladder_coarse: cc::DistributedLadder::run on a synthetic system, the
/// exact call the CCSD driver makes once per iteration.
class CoarseInstance final : public Instance {
 public:
  CoarseInstance(const WorkloadSpec& w, const Sizes& sz, uint64_t seed,
                 bool traced)
      : sys_(cc::make_synthetic(sz.coarse_no_a, sz.coarse_nv_a, 1.5, 0.01,
                                derive_seed(seed, Stream::kSystem))),
        ladder_(sys_, sz.coarse_tile, w.shape.ranks),
        tau_(mp2_tau(sys_)) {
    ptg_.kind = cc::ExecKind::kPtg;
    ptg_.variant = tce::VariantConfig::v5();
    ptg_.workers_per_rank = w.shape.workers;
    ptg_.enable_tracing = traced;
    orig_.kind = cc::ExecKind::kOriginal;
    orig_.workers_per_rank = w.shape.workers;
  }

  void submit() override { last_ = ladder_.run(tau_, ptg_); }
  void submit_original() override { last_ = ladder_.run(tau_, orig_); }

  double check() override {
    if (ref_.empty()) {
      cc::LadderRunOptions ref;
      ref.kind = cc::ExecKind::kReference;
      ref_ = ladder_.run(tau_, ref).r_dense;
    }
    return rel_error(last_.r_dense, ref_);
  }

  IterStats last_stats() const override {
    IterStats s;
    s.tasks = last_.tasks_executed;
    s.remote_activations = last_.remote_activations;
    s.contended_pops = last_.sched.contended_pops;
    s.contended_pushes = last_.sched.contended_pushes;
    s.sched_steals = last_.sched.steals;
    // One rank: the ladder's private cluster has no peer to message.
    s.tasks_per_rank = {last_.tasks_executed};
    return s;
  }
  ptg::Trace last_trace() const override { return last_.trace; }
  std::vector<std::string> class_names() const override {
    return last_.class_names;
  }
  const tce::ChainPlan& plan() const override { return ladder_.plan(); }

 private:
  cc::SpinOrbitalSystem sys_;
  cc::DistributedLadder ladder_;
  std::vector<double> tau_;
  cc::LadderRunOptions ptg_, orig_;
  cc::LadderRunResult last_;
  std::vector<double> ref_;
};

}  // namespace

// ---------------------------------------------------------------- steal

/// Persistent per-rank Contexts over a cached template, like PtgSession,
/// but with the steal agent's RNG seed taken from the workload seed and a
/// migration observer that counts task-carrying steal replies.
class StealSession {
 public:
  StealSession(vc::Cluster& cluster, std::shared_ptr<tce::PtgTemplate> tpl,
               const tce::PtgExecOptions& opts, uint64_t steal_seed)
      : tpl_(std::move(tpl)) {
    ptg::Options ropts = tce::runtime_options(opts);
    ropts.persistent = true;
    ropts.assume_verified = tpl_->verified();
    ropts.steal_seed = steal_seed;
    ropts.migration_observer = &tagger_;
    const int n = cluster.nranks();
    for (int r = 0; r < n; ++r) {
      rctxs_.push_back(std::make_unique<vc::RankCtx>(&cluster, r));
      ctxs_.push_back(
          std::make_unique<ptg::Context>(*rctxs_.back(), tpl_->pool(), ropts));
    }
    tagger_.ctxs = &ctxs_;
    results_.resize(static_cast<size_t>(n));
  }

  StealSession(const StealSession&) = delete;
  StealSession& operator=(const StealSession&) = delete;

  const std::vector<tce::PtgExecResult>& submit(const tce::StoreList& stores) {
    tpl_->rebind(stores);
    tagger_.clear();
    const size_t n = ctxs_.size();
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> drivers;
    for (size_t r = 0; r < n; ++r) {
      drivers.emplace_back([this, r, &errors] {
        try {
          ctxs_[r]->run();
          results_[r] = tce::result_from_context(*ctxs_[r], tpl_->pool());
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
    for (auto& t : drivers) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return results_;
  }

  uint64_t useful_replies() const { return tagger_.count(); }

 private:
  /// The victim's comm thread reports each task it ships, before it bumps
  /// replies_sent; (victim, replies_sent) therefore names the reply that
  /// carries the task, and the distinct names count task-carrying replies.
  class ReplyTagger final : public ptg::MigrationObserver {
   public:
    void migrated(const ptg::TaskKey&, int home, int) override {
      const uint64_t reply =
          (*ctxs)[static_cast<size_t>(home)]->steal_stats().replies_sent;
      std::lock_guard lock(mu_);
      replies_.insert({home, reply});
    }
    void credited(const ptg::TaskKey&, int, int) override {}
    void clear() {
      std::lock_guard lock(mu_);
      replies_.clear();
    }
    uint64_t count() const {
      std::lock_guard lock(mu_);
      return replies_.size();
    }
    const std::vector<std::unique_ptr<ptg::Context>>* ctxs = nullptr;

   private:
    mutable std::mutex mu_;
    std::set<std::pair<int, uint64_t>> replies_;
  };

  std::shared_ptr<tce::PtgTemplate> tpl_;
  ReplyTagger tagger_;  // outlives the Contexts that call it
  std::vector<std::unique_ptr<vc::RankCtx>> rctxs_;
  std::vector<std::unique_ptr<ptg::Context>> ctxs_;
  std::vector<tce::PtgExecResult> results_;
};

std::shared_ptr<tce::PtgTemplate> build_template(tce::TemplateCache& cache,
                                                 const WorkloadSpec& w,
                                                 Problem& p,
                                                 const tce::ChainPlan& plan) {
  tce::TemplateKey key;
  key.subroutine = w.kind == Kind::kSkewedSteal ? "t2_7_skewed" : "t2_7";
  key.tile_fingerprint = tce::fingerprint_tile_space(p.space.spec());
  key.variant = tce::variant_signature(tce::VariantConfig::v5());
  key.nranks = p.cluster.nranks();
  return cache.get_or_build(key, plan, p.stores(), tce::VariantConfig::v5());
}

Session::Session(const WorkloadSpec& w, Problem& p,
                 std::shared_ptr<tce::PtgTemplate> tpl, bool traced,
                 uint64_t seed) {
  tce::PtgExecOptions opts;
  opts.variant = tce::VariantConfig::v5();
  opts.workers_per_rank = w.shape.workers;
  opts.enable_tracing = traced;
  if (w.kind == Kind::kSkewedSteal) {
    opts.enable_stealing = true;
    steal_ = std::make_unique<StealSession>(p.cluster, std::move(tpl), opts,
                                            derive_seed(seed, Stream::kSteal));
  } else {
    ptg_ = std::make_unique<tce::PtgSession>(p.cluster, std::move(tpl), opts);
  }
}

Session::~Session() = default;

const std::vector<tce::PtgExecResult>& Session::submit(
    const tce::StoreList& stores) {
  return steal_ ? steal_->submit(stores) : ptg_->submit(stores);
}

uint64_t Session::useful_replies() const {
  return steal_ ? steal_->useful_replies() : 0;
}

namespace {

// ---------------------------------------------------------------- t2_7 plans

/// The fine and skewed workloads: a t2_7 plan over GAs the benchmark owns,
/// submitted through TemplateCache and a persistent session.
class PlanInstance final : public Instance {
 public:
  PlanInstance(const WorkloadSpec& w, const Sizes& sz, uint64_t seed,
               bool traced)
      : problem_(workload_space(w, sz), w.shape.ranks,
                 derive_seed(seed, Stream::kFill)),
        plan_(workload_plan(w, problem_, seed)),
        session_(w, problem_, build_template(cache_, w, problem_, plan_),
                 traced, seed),
        workers_(w.shape.workers) {}

  void prepare() override { problem_.r_ga.zero(); }

  void submit() override {
    const auto before = problem_.cluster.fabric().stats();
    last_ = &session_.submit(problem_.stores());
    const auto after = problem_.cluster.fabric().stats();
    fabric_msgs_ = after.messages_sent - before.messages_sent;
    fabric_bytes_ = after.bytes_sent - before.bytes_sent;
  }

  void submit_original() override {
    ga::NxtVal nxtval(&problem_.cluster, 1);
    tce::OriginalExecOptions oopts;
    oopts.workers_per_rank = workers_;
    const auto stores = problem_.stores();
    problem_.cluster.run([&](vc::RankCtx& rctx) {
      tce::execute_original(rctx, plan_, stores, nxtval, oopts);
    });
  }

  double check() override {
    if (ref_.empty()) {
      ga::GlobalArray ref_ga(&problem_.cluster, problem_.r_shape.ga_size());
      tce::StoreList stores = problem_.stores();
      stores[2].ga = &ref_ga;
      tce::execute_reference(plan_, stores);
      ref_ = ga_contents(ref_ga);
    }
    return rel_error(ga_contents(problem_.r_ga), ref_);
  }

  IterStats last_stats() const override {
    IterStats s;
    if (last_ == nullptr) return s;
    for (const auto& r : *last_) {
      s.tasks += r.tasks_executed;
      s.remote_activations += r.remote_activations;
      s.contended_pops += r.sched.contended_pops;
      s.contended_pushes += r.sched.contended_pushes;
      s.sched_steals += r.sched.steals;
      s.migrated += r.steal.tasks_migrated_in;
      s.steal_requests += r.steal.requests_sent;
      s.credits += r.steal.credits_received;
      s.replies_received += r.steal.replies_received;
      s.tasks_per_rank.push_back(r.tasks_executed);
    }
    s.fabric_msgs = fabric_msgs_;
    s.fabric_bytes = fabric_bytes_;
    s.useful_replies = session_.useful_replies();
    return s;
  }

  ptg::Trace last_trace() const override {
    ptg::Trace t;
    if (last_ != nullptr) {
      for (const auto& r : *last_) t.append(r.trace);
    }
    return t;
  }
  std::vector<std::string> class_names() const override {
    return last_ != nullptr && !last_->empty() ? last_->front().class_names
                                               : std::vector<std::string>{};
  }
  const tce::ChainPlan& plan() const override { return plan_; }

 private:
  Problem problem_;
  tce::ChainPlan plan_;
  // Declared after the problem: the session references its cluster and GAs.
  tce::TemplateCache cache_;
  Session session_;
  int workers_;
  const std::vector<tce::PtgExecResult>* last_ = nullptr;
  uint64_t fabric_msgs_ = 0, fabric_bytes_ = 0;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Instance> make_instance(const WorkloadSpec& w, const Sizes& sz,
                                        uint64_t seed, bool traced) {
  if (w.kind == Kind::kCoarse) {
    return std::make_unique<CoarseInstance>(w, sz, seed, traced);
  }
  return std::make_unique<PlanInstance>(w, sz, seed, traced);
}

}  // namespace lb
