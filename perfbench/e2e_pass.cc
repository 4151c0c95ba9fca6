// e2e_pass — one pass of an end-to-end benchmark workload.
//
// A pass replays the workload's fixed job traces through Simulator::run, in
// this process, and prints one JSON object (the last line of stdout) with
// what it measured. run.py starts every pass in a fresh process, so the
// process-wide PlanSetCache, intern table and ThreadPool::global() start
// cold each time, as they do for every rubick_simulate invocation.
//
// Layers are timed from outside the program only, by wrapping calls to
// public functions: TraceGenerator::generate, PerfModelStore::profile_models
// (its store reaches the run through RunContext::store and
// profiling_cost_s), SchedulerPolicy::schedule (TimedPolicy below) and every
// SimObserver callback (TimedObserver below).
//
//   e2e_pass --workload=paper-406 --mode=timed --trace-seed=1 --fault-seed=13
//            --order-seed=1
//
// Modes:
//   timed   end-to-end pass: pre-fitted store, no telemetry.
//   traced  as timed, with TraceRecorder and MetricsRegistry enabled; adds
//           the phase:bind/curves/decide span totals and registry counters.
//   verify  untimed check: ctx.store = nullptr (the simulator profiles by
//           itself) with an InvariantAuditor on every run. Its digests must
//           equal the timed passes' digests.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "baselines/policy_factory.h"
#include "check/invariant_auditor.h"
#include "cluster/cluster.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/audit.h"
#include "core/rubick_policy.h"
#include "failure/fault_plan.h"
#include "perf/oracle.h"
#include "perf/perf_store.h"
#include "plan/plan_cache.h"
#include "provenance/provenance.h"
#include "sim/provenance_observer.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "trace/job.h"
#include "trace/trace_gen.h"

using namespace rubick;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Forwards schedule() to the wrapped policy and records its wall time.
class TimedPolicy final : public SchedulerPolicy {
 public:
  TimedPolicy(SchedulerPolicy& inner, std::vector<double>& latencies_s)
      : inner_(inner), latencies_s_(latencies_s) {}

  std::string name() const override { return inner_.name(); }

  std::vector<Assignment> schedule(const SchedulerInput& input) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<Assignment> out = inner_.schedule(input);
    latencies_s_.push_back(seconds_since(t0));
    return out;
  }

 private:
  SchedulerPolicy& inner_;
  std::vector<double>& latencies_s_;
};

// Forwards every callback to the wrapped observer and adds its wall time to
// `busy_s`.
class TimedObserver final : public SimObserver {
 public:
  TimedObserver(SimObserver& inner, double& busy_s)
      : inner_(inner), busy_s_(busy_s) {}

  void on_run_begin(const SimRunInfo& info) override {
    timed([&] { inner_.on_run_begin(info); });
  }
  void on_tick(const SimTick& tick) override {
    timed([&] { inner_.on_tick(tick); });
  }
  void on_run_end(const SimTick& tick) override {
    timed([&] { inner_.on_run_end(tick); });
  }
  void on_fault(const SimFaultNotice& notice) override {
    timed([&] { inner_.on_fault(notice); });
  }

 private:
  template <typename F>
  void timed(F&& callback) {
    const Clock::time_point t0 = Clock::now();
    callback();
    busy_s_ += seconds_since(t0);
  }

  SimObserver& inner_;
  double& busy_s_;
};

// Stream sink that keeps only a byte count: the decision log is rendered
// in full but never touches the disk.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

// One job trace of a workload, generated and profiled once per pass.
struct TraceDef {
  std::string label;
  TraceVariant variant = TraceVariant::kBase;
  int num_jobs = 406;
};

// One Simulator::run of a pass: a policy replaying one of the traces.
struct RunDef {
  std::size_t trace = 0;  // index into Workload::traces
  std::string policy;
};

// The four workloads. Their reasons are recorded in BENCHMARK.json.
struct Workload {
  std::vector<TraceDef> traces;
  std::vector<RunDef> runs;
  bool faulted = false;   // fault plan: --fault-seed, reconfig failures 0.1
  bool observed = false;  // InvariantAuditor + ProvenanceObserver attached
};

Workload make_workload(const std::string& name) {
  Workload w;
  if (name == "paper-406") {
    w.traces = {{"base", TraceVariant::kBase, 406},
                {"bp", TraceVariant::kBestPlan, 406},
                {"mt", TraceVariant::kMultiTenant, 406}};
    w.runs = {{0, "rubick"}, {1, "rubick"}, {2, "rubick"}};
  } else if (name == "overload-1000") {
    w.traces = {{"base", TraceVariant::kBase, 1000}};
    w.runs = {{0, "rubick"}};
  } else if (name == "faulted-observed-400") {
    w.traces = {{"base", TraceVariant::kBase, 400}};
    w.runs = {{0, "rubick"}};
    w.faulted = true;
    w.observed = true;
  } else if (name == "baselines-406") {
    // equal-share is left out: on this trace it stops with "scheduler
    // deadlock: pending jobs but idle cluster".
    w.traces = {{"base", TraceVariant::kBase, 406}};
    w.runs = {{0, "sia"}, {0, "synergy"}, {0, "antman"}};
  } else {
    RUBICK_CHECK_MSG(false, "unknown --workload '"
                                << name
                                << "'; try paper-406, overload-1000, "
                                   "faulted-observed-400, baselines-406");
  }
  return w;
}

// Seeded permutation of [0, n), drawn from the library's own Rng so the
// order depends on the seed only, not on the standard library.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  return order;
}

// FNV-1a digest of everything a SimResult decides: per-job finish time and
// assignment history, rounds, refits and fault accounting.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h_;
    return os.str();
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::string digest_of(const SimResult& r) {
  Digest d;
  d.i64(static_cast<std::int64_t>(r.jobs.size()));
  for (const JobResult& j : r.jobs) {
    d.i64(j.spec.id);
    d.i64(j.finished ? 1 : 0);
    d.f64(j.first_start_s);
    d.f64(j.finish_s);
    d.f64(j.jct_s);
    d.i64(j.reconfig_count);
    d.i64(j.crash_restarts);
    d.i64(j.reconfig_failures);
    d.i64(j.degraded ? 1 : 0);
    d.i64(static_cast<std::int64_t>(j.history.size()));
    for (const AssignmentRecord& a : j.history) {
      d.f64(a.since_s);
      d.i64(a.gpus);
      d.i64(a.cpus);
      const ExecutionPlan& p = a.plan;
      for (int v : {p.dp, p.tp, p.pp, p.ga_steps, p.micro_batches,
                    static_cast<int>(p.zero), p.grad_ckpt ? 1 : 0})
        d.i64(v);
      d.f64(a.throughput);
    }
  }
  d.f64(r.makespan_s);
  d.i64(r.scheduling_rounds);
  d.i64(r.online_refits);
  for (int v : {r.fault_node_crashes, r.fault_gpu_transients,
                r.fault_straggler_episodes, r.fault_reconfig_failures,
                r.crash_restarts, r.degraded_jobs})
    d.i64(v);
  return d.hex();
}

// Seconds a fixed probe takes on this machine right now: std::map inserts
// and lookups, the best of five tries. It uses no library code, so a change
// to the program never moves it; run.py divides timings by it to take out
// the speed of the machine.
volatile std::uint64_t probe_sink = 0;  // keeps the probe's lookups alive

double machine_probe_s() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::uint32_t>(x);
  };
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::map<std::uint32_t, std::uint32_t> m;
    for (std::uint32_t i = 0; i < 20000; ++i) m[next()] = i;
    for (int i = 0; i < 40000; ++i) {
      const auto it = m.lower_bound(next());
      if (it != m.end()) sink += it->second;
    }
    best = std::min(best, seconds_since(t0));
  }
  probe_sink = sink;
  return best;
}

// Peak resident memory of this process in MB. VmHWM belongs to the address
// space exec() created; getrusage's ru_maxrss would also count the parent's
// image from before exec().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string json_string(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
         << static_cast<int>(c) << std::dec;
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

struct RunOutcome {
  std::string label;
  std::string policy;
  std::string digest;
  std::string error;  // empty when the run succeeded
  double avg_jct_h = 0.0;
  double makespan_h = 0.0;
  int jobs = 0;
  int finished = 0;
  int rounds = 0;
  int refits = 0;
};

// Everything one pass measured; printed as one JSON object.
struct PassOutput {
  double probe_s = 0.0;  // machine_probe_s(), mean of before and after
  double trace_gen_s = 0.0;
  double profile_fit_s = 0.0;
  int models = 0;
  double run_s = 0.0;
  double sched_busy_s = 0.0;
  std::map<std::string, double> sched_busy_by_policy;
  std::vector<double> round_s;
  double obs_audit_s = 0.0;
  double obs_provenance_s = 0.0;
  std::uint64_t log_bytes = 0;
  double log_write_s = 0.0;
  std::uint64_t fast_path_rounds = 0;
  CacheStats predictor;
  long audit_checks = 0;
  long audit_violations = 0;
  int reconfig_failures = 0;
  int crash_restarts = 0;
  int degraded_jobs = 0;
  std::vector<RunOutcome> runs;
};

void print_pass(std::ostream& os, const std::string& workload,
                const std::string& mode, const PassOutput& p, double wall_s,
                bool traced) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"workload\":" << json_string(workload)
     << ",\"mode\":" << json_string(mode) << ",\"wall_s\":" << wall_s
     << ",\"probe_s\":" << p.probe_s
     << ",\"trace_gen_s\":" << p.trace_gen_s
     << ",\"profile_fit_s\":" << p.profile_fit_s << ",\"models\":" << p.models
     << ",\"run_s\":" << p.run_s << ",\"sched_busy_s\":" << p.sched_busy_s
     << ",\"sched_busy_by_policy\":{";
  bool first = true;
  for (const auto& [policy, s] : p.sched_busy_by_policy) {
    os << (first ? "" : ",") << json_string(policy) << ":" << s;
    first = false;
  }
  os << "},\"round_s\":[";
  for (std::size_t i = 0; i < p.round_s.size(); ++i)
    os << (i == 0 ? "" : ",") << p.round_s[i];
  const PlanCacheStats plan_cache = PlanSetCache::global().stats();
  os << "],\"obs_audit_s\":" << p.obs_audit_s
     << ",\"obs_provenance_s\":" << p.obs_provenance_s
     << ",\"log_bytes\":" << p.log_bytes
     << ",\"log_write_s\":" << p.log_write_s
     << ",\"peak_rss_mb\":" << peak_rss_mb()
     << ",\"fast_path_rounds\":" << p.fast_path_rounds
     << ",\"predictor_hits\":" << p.predictor.hits
     << ",\"predictor_lookups\":" << p.predictor.lookups()
     << ",\"plan_cache_hits\":" << plan_cache.hits
     << ",\"plan_cache_lookups\":" << plan_cache.lookups()
     << ",\"audit_checks\":" << p.audit_checks
     << ",\"audit_violations\":" << p.audit_violations
     << ",\"reconfig_failures\":" << p.reconfig_failures
     << ",\"crash_restarts\":" << p.crash_restarts
     << ",\"degraded_jobs\":" << p.degraded_jobs;
  if (traced) {
    // The policy's own phase spans and registry counters: public reads of
    // what the program already records when telemetry is on.
    std::map<std::string, double> phase_s;
    for (const TraceEvent& e : TraceRecorder::global().snapshot())
      if (e.ph == 'X' && e.name.rfind("phase:", 0) == 0)
        phase_s[e.name] += e.dur_us * 1e-6;
    const MetricsRegistry& reg = MetricsRegistry::global();
    os << ",\"bind_s\":" << phase_s["phase:bind"]
       << ",\"curves_s\":" << phase_s["phase:curves"]
       << ",\"decide_s\":" << phase_s["phase:decide"]
       << ",\"ticks\":" << reg.counter_value("sim.ticks")
       << ",\"victim_heap_pops\":"
       << reg.counter_value("scheduler.victim_heap_pops")
       << ",\"slope_evals\":" << reg.counter_value("scheduler.slope_evals")
       << ",\"slope_evals_saved\":"
       << reg.counter_value("scheduler.slope_evals_saved");
  }
  os << ",\"runs\":[";
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    const RunOutcome& r = p.runs[i];
    os << (i == 0 ? "" : ",") << "{\"label\":" << json_string(r.label)
       << ",\"policy\":" << json_string(r.policy)
       << ",\"digest\":" << json_string(r.digest)
       << ",\"error\":" << json_string(r.error)
       << ",\"avg_jct_h\":" << r.avg_jct_h << ",\"makespan_h\":" << r.makespan_h
       << ",\"jobs\":" << r.jobs << ",\"finished\":" << r.finished
       << ",\"rounds\":" << r.rounds << ",\"refits\":" << r.refits << "}";
  }
  os << "]}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  // The machine probe brackets the pass, outside its wall time.
  const double probe_before_s = machine_probe_s();
  const Clock::time_point pass_start = Clock::now();
  CliFlags flags(argc, argv);
  const std::string workload_name = flags.get_string("workload", "");
  const std::string mode = flags.get_string("mode", "timed");
  const std::uint64_t trace_seed = flags.get_u64("trace-seed", 1);
  const std::uint64_t fault_seed = flags.get_u64("fault-seed", 13);
  const std::uint64_t order_seed = flags.get_u64("order-seed", 1);
  flags.finish();
  RUBICK_CHECK_MSG(mode == "timed" || mode == "traced" || mode == "verify",
                   "unknown --mode '" << mode << "'; try timed, traced, verify");
  const bool traced = mode == "traced";
  const bool verify = mode == "verify";
  const Workload w = make_workload(workload_name);

  if (traced) {
    set_telemetry_enabled(true);
    TraceRecorder::global().set_enabled(true);
  }

  // Same configuration as `rubick_simulate` with default flags.
  const ClusterSpec cluster;
  const GroundTruthOracle oracle(2025);
  const TraceGenerator gen(cluster, oracle);
  SimulationOptions sim_options;
  const Simulator sim(cluster, oracle, sim_options.sim);
  FaultPlan fault_plan;
  if (w.faulted) {
    FaultPlanOptions fault_opts;
    fault_opts.reconfig_failure_prob = 0.1;
    fault_plan = FaultPlan::generate(fault_seed, fault_opts, cluster);
  }

  PassOutput out;
  const std::vector<std::size_t> trace_order =
      permutation(w.traces.size(), order_seed);
  const std::vector<std::size_t> run_order =
      permutation(w.runs.size(), order_seed ^ 0x5bd1e995ULL);

  // ---- Set-up: trace generation, then profile/fit (skipped in verify
  // mode, where the simulator profiles by itself). ----
  std::vector<std::vector<JobSpec>> traces(w.traces.size());
  std::vector<PerfModelStore> stores(w.traces.size());
  std::vector<std::map<std::string, double>> costs(w.traces.size());
  for (const std::size_t t : trace_order) {
    TraceOptions opts;
    opts.seed = trace_seed;
    opts.variant = w.traces[t].variant;
    opts.num_jobs = w.traces[t].num_jobs;
    const Clock::time_point t0 = Clock::now();
    traces[t] = gen.generate(opts);
    out.trace_gen_s += seconds_since(t0);
  }
  if (!verify) {
    for (const std::size_t t : trace_order) {
      std::vector<std::string> names;
      names.reserve(traces[t].size());
      for (const JobSpec& j : traces[t]) names.push_back(j.model_name);
      const Clock::time_point t0 = Clock::now();
      stores[t] = PerfModelStore::profile_models(oracle, cluster, names,
                                                 /*global_batch_hint=*/0,
                                                 &costs[t]);
      out.profile_fit_s += seconds_since(t0);
      out.models += static_cast<int>(costs[t].size());
    }
  }

  // ---- The runs. ----
  const PolicyFactory& factory = PolicyFactory::global();
  for (const std::size_t r : run_order) {
    const RunDef& def = w.runs[r];
    const TraceDef& tdef = w.traces[def.trace];
    RunOutcome outcome;
    outcome.label = tdef.label;
    outcome.policy = def.policy;
    try {
      PolicyParams params;
      if (tdef.variant == TraceVariant::kMultiTenant)
        params.tenant_quota_gpus["tenant-a"] = 64;
      std::unique_ptr<SchedulerPolicy> policy =
          factory.create(def.policy, params);
      const bool rubick_family = PolicyFactory::rubick_family(def.policy);
      AuditConfig audit_config;
      audit_config.on_violation = ViolationPolicy::kCount;
      audit_config.check_guarantee = rubick_family;
      audit_config.check_curves = rubick_family;
      InvariantAuditor auditor(audit_config);
      ProvenanceRecorder recorder;
      ProvenanceObserver provenance(&recorder, policy->name());
      double audit_s = 0.0;
      double provenance_s = 0.0;
      TimedObserver timed_auditor(auditor, audit_s);
      TimedObserver timed_provenance(provenance, provenance_s);
      SimObserverList observers;
      const bool audited = w.observed || verify;
      if (audited) observers.add(&timed_auditor);
      if (w.observed) {
        policy->set_provenance(&recorder);
        observers.add(&timed_provenance);
      }
      std::vector<double> latencies_s;
      TimedPolicy timed_policy(*policy, latencies_s);

      RunContext ctx;
      ctx.options = &sim_options;
      if (!verify) {
        ctx.store = &stores[def.trace];
        ctx.profiling_cost_s = &costs[def.trace];
      }
      if (w.faulted) ctx.fault_plan = &fault_plan;
      if (!observers.empty()) ctx.observer = &observers;

      const Clock::time_point t0 = Clock::now();
      const SimResult result = sim.run(traces[def.trace], timed_policy, ctx);
      const double run_s = seconds_since(t0);

      if (w.observed) {
        CountingBuf sink;
        std::ostream log(&sink);
        const Clock::time_point w0 = Clock::now();
        provenance.write_jsonl(log);
        out.log_write_s += seconds_since(w0);
        out.log_bytes += sink.bytes();
      }

      double busy_s = 0.0;
      for (const double s : latencies_s) busy_s += s;
      out.run_s += run_s;
      out.sched_busy_s += busy_s;
      out.sched_busy_by_policy[def.policy] += busy_s;
      out.round_s.insert(out.round_s.end(), latencies_s.begin(),
                         latencies_s.end());
      out.obs_audit_s += audit_s;
      out.obs_provenance_s += provenance_s;
      if (const auto* rp = dynamic_cast<const RubickPolicy*>(policy.get())) {
        out.fast_path_rounds += rp->fast_path_rounds();
        out.predictor += rp->cache_stats();
      }
      out.reconfig_failures += result.fault_reconfig_failures;
      out.crash_restarts += result.crash_restarts;
      out.degraded_jobs += result.degraded_jobs;

      outcome.digest = digest_of(result);
      outcome.avg_jct_h = result.avg_jct_s() / 3600.0;
      outcome.makespan_h = result.makespan_s / 3600.0;
      outcome.jobs = static_cast<int>(result.jobs.size());
      outcome.rounds = result.scheduling_rounds;
      outcome.refits = result.online_refits;
      bool finite = std::isfinite(outcome.avg_jct_h);
      for (const JobResult& j : result.jobs) {
        outcome.finished += j.finished ? 1 : 0;
        finite = finite && std::isfinite(j.jct_s);
      }
      if (outcome.finished != outcome.jobs)
        outcome.error = std::to_string(outcome.jobs - outcome.finished) +
                        " job(s) left unfinished";
      else if (!finite)
        outcome.error = "non-finite JCT";
      if (audited) {
        const AuditReport& report = auditor.report();
        out.audit_checks += report.checks_performed;
        out.audit_violations += report.total_violations;
        if (!report.clean() && outcome.error.empty())
          outcome.error = report.summary();
      }
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    out.runs.push_back(std::move(outcome));
  }

  const double wall_s = seconds_since(pass_start);
  out.probe_s = (probe_before_s + machine_probe_s()) / 2.0;
  print_pass(std::cout, workload_name, mode, out, wall_s, traced);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "e2e_pass: " << e.what() << "\n";
  return 2;
}
