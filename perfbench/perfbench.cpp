// perfbench: the in-process half of the csTuner benchmark. run.py builds and
// drives it; every subcommand prints one JSON object per line on stdout.
//
//   ready                        cold-start probe for the in-process workloads
//   tune-suite  --seed --seconds [--trace 1] [--stencils a,b]
//               [--serial-stencil s]
//   zoo-search  --seed --seconds --budget --max-iterations [--trace 1]
//               [--stencils a,b]
//   profile     --seed           gpusim oracle probe (ns per profiled setting)
//   check-settings               reads "stencil<TAB>setting" lines on stdin
//   serve-traced --state-dir --port-file   daemon behind a timing io::Vfs
//
// Sessions run closed loop, one at a time, each on a cold Evaluator. A
// session-suite subcommand repeats whole passes over its session list for
// about --seconds (at least one pass).
// With --trace 1 the benchmark times its own calls into each layer's public
// functions; the program itself is not instrumented.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/propagate.hpp"
#include "analysis/pruner.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/cs_tuner.hpp"
#include "core/grouping.hpp"
#include "core/sampling.hpp"
#include "gpusim/gpu_arch.hpp"
#include "gpusim/simulator.hpp"
#include "io/vfs.hpp"
#include "search/optimizer.hpp"
#include "search/registry.hpp"
#include "serve/server.hpp"
#include "space/lazy_universe.hpp"
#include "stencil/stencils.hpp"
#include "tuner/dataset.hpp"

namespace {

using namespace cstuner;
using Clock = std::chrono::steady_clock;

constexpr const char* kArch = "a100";
constexpr std::size_t kUniverse = 8000;  // `cstuner tune` defaults
constexpr double kTuneBudgetS = 60.0;
constexpr std::size_t kDatasetSize = 128;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and adds its wall time to `acc`.
template <typename Fn>
auto timed(double& acc, Fn&& fn) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += since(t0);
  } else {
    auto out = fn();
    acc += since(t0);
    return out;
  }
}

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  double num(const std::string& k, double def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::stod(it->second);
  }
  double required(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) throw UsageError("missing --" + k);
    return std::stod(it->second);
  }
  std::vector<std::string> list(const std::string& k,
                                std::vector<std::string> def) const {
    auto it = kv.find(k);
    if (it == kv.end() || it->second.empty()) return def;
    std::vector<std::string> out;
    std::stringstream ss(it->second);
    for (std::string item; std::getline(ss, item, ',');) out.push_back(item);
    return out;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw UsageError("expected --key value pairs, got: " + k);
    }
    args.kv[k.substr(2)] = argv[++i];
  }
  return args;
}

/// Per-session tuner seed: a pure function of the workload seed and the
/// session's identity, kept below 2^31 so `cstuner tune --seed` takes it.
std::uint64_t session_seed(std::uint64_t workload_seed,
                           const std::string& stencil,
                           const std::string& algo) {
  std::uint64_t h = hash_combine(workload_seed,
                                 fnv1a(stencil.data(), stencil.size()));
  h = hash_combine(h, fnv1a(algo.data(), algo.size()));
  return (h % 2147483647ULL) + 1;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Named span totals (seconds) and counts recorded by one traced session.
using Spans = std::map<std::string, double>;

struct Session {
  std::string stencil;
  std::string algo;
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  std::string state = "failed";  // done | exhausted | stalled | failed
  std::string error;
  double best_ms = std::numeric_limits<double>::infinity();
  std::string best_setting;
  bool valid = false;
  std::size_t evaluations = 0;
  std::size_t iterations = 0;
  double virtual_s = 0.0;
  Spans spans;
};

void emit(const Session& s, std::size_t pass) {
  JsonWriter j;
  j.begin_object();
  j.field("type", "session");
  j.field("pass", static_cast<std::uint64_t>(pass));
  j.field("stencil", s.stencil);
  j.field("algo", s.algo);
  j.field("seed", s.seed);
  j.field("wall_s", s.wall_s);
  j.field("state", s.state);
  if (!s.error.empty()) j.field("error", s.error);
  j.field("best_time_bits", std::bit_cast<std::uint64_t>(s.best_ms));
  j.field("best_time_ms", std::isfinite(s.best_ms) ? s.best_ms : -1.0);
  j.field("best_setting", s.best_setting);
  j.field("valid", s.valid);
  j.field("evaluations", static_cast<std::uint64_t>(s.evaluations));
  j.field("iterations", static_cast<std::uint64_t>(s.iterations));
  j.field("virtual_time_bits", std::bit_cast<std::uint64_t>(s.virtual_s));
  if (!s.spans.empty()) {
    j.key("spans").begin_object();
    for (const auto& [k, v] : s.spans) j.field(k, v);
    j.end_object();
  }
  j.end_object();
  std::cout << j.str() << '\n' << std::flush;
}

/// Fills the outcome fields every session shares.
void record_outcome(Session& s, const tuner::Evaluator& ev,
                    const space::SearchSpace& space) {
  s.best_ms = ev.best_time_ms();
  s.evaluations = ev.unique_evaluations();
  s.iterations = ev.iterations();
  s.virtual_s = ev.virtual_time_s();
  if (ev.best_setting().has_value()) {
    s.best_setting = ev.best_setting()->to_string();
    s.valid = space.is_valid(*ev.best_setting());
  }
}

// --- tune-suite: csTuner sessions with CLI defaults ------------------------

core::CsTunerOptions cli_tune_options(std::uint64_t seed) {
  core::CsTunerOptions options;
  options.universe_size = kUniverse;
  options.seed = seed;
  return options;
}

tuner::StopCriteria cli_tune_stop() {
  tuner::StopCriteria stop;
  stop.max_virtual_seconds = kTuneBudgetS;
  return stop;
}

/// The traced session: the csTuner offline pipeline called layer by layer
/// from here, then CsTuner::tune with the universe and dataset injected.
/// Mirrors CsTuner::tune's own sequence, so the universe is the one the
/// untraced session uses (checked against the tuner's report).
/// Returns the wall time spent on the serial baseline, which is not part of
/// the session.
double traced_cstuner(Session& s, const space::SearchSpace& space,
                      const gpusim::Simulator& sim, tuner::Evaluator& ev,
                      const std::string& serial_stencil) {
  ThreadPool* pool = ev.thread_pool();
  Spans& sp = s.spans;
  analysis::PropagateOptions popts;
  popts.compute_counts = false;
  popts.pool = pool;
  auto domains = timed(sp["analysis.propagate_s"], [&] {
    return std::make_shared<analysis::PropagationResult>(
        analysis::propagate(space, popts));
  });
  std::optional<space::LazyUniverse> lazy;
  timed(sp["space.universe_build_s"], [&] {
    lazy.emplace(space, space::LazyUniverseOptions{}, pool);
  });
  const std::uint64_t valid = lazy->valid_count();
  Rng rng(s.seed);
  const std::uint64_t salt = rng.next() | 1;
  auto sample = [&](space::LazyUniverse& u) {
    return valid <= kUniverse ? u.take_all() : u.spread_sample(kUniverse, salt);
  };
  auto universe =
      timed(sp["space.spread_sample_s"], [&] { return sample(*lazy); });
  sp["space.valid_count"] = static_cast<double>(valid);
  sp["space.universe_settings"] = static_cast<double>(universe.size());
  double serial_block_s = 0.0;
  if (s.stencil == serial_stencil) {
    const auto t0 = Clock::now();
    space::LazyUniverse serial(space, {}, nullptr);
    auto serial_universe = timed(sp["space.spread_sample_serial_s"],
                                 [&] { return sample(serial); });
    if (serial_universe != universe) {
      throw Error("serial spread_sample differs from the pooled one");
    }
    serial_block_s = since(t0);
  }
  analysis::StaticPruner pruner(space);
  pruner.set_domains(domains);
  timed(sp["analysis.prune_s"], [&] { pruner.prune(universe); });
  Rng dataset_rng(hash_combine(s.seed, 0xDA7A5E7ULL));
  auto dataset = timed(sp["tuner.dataset_s"], [&] {
    return tuner::collect_dataset(space, sim, kDatasetSize, dataset_rng, pool);
  });
  auto groups = timed(sp["core.grouping_s"],
                      [&] { return core::group_parameters(space, dataset); });
  timed(sp["core.sampling_s"], [&] {
    return core::sample_search_space(space, dataset, groups, universe,
                                     core::SamplingConfig{}, pool);
  });
  core::CsTuner tuner(cli_tune_options(s.seed));
  const std::size_t universe_size = universe.size();
  tuner.set_universe(std::move(universe));
  tuner.set_dataset(std::move(dataset));
  double tune_s = 0.0;
  timed(tune_s, [&] { tuner.tune(ev, cli_tune_stop()); });
  const auto& report = tuner.report();
  if (report.universe_count != universe_size) {
    throw Error("injected universe was re-pruned by the tuner");
  }
  // The tuner re-runs grouping and sampling on the injected inputs; its
  // search time is the rest of tune().
  sp["core.search_s"] =
      tune_s - report.dataset_s - report.grouping_s - report.sampling_s;
  return serial_block_s;
}

Session cstuner_session(const std::string& name, std::uint64_t workload_seed,
                        bool trace, const std::string& serial_stencil) {
  Session s;
  s.stencil = name;
  s.algo = "csTuner";
  s.seed = session_seed(workload_seed, name, s.algo);
  const auto t0 = Clock::now();
  double excluded_s = 0.0;
  try {
    space::SearchSpace space(stencil::make_stencil(name));
    gpusim::Simulator sim(gpusim::arch_by_name(kArch));
    tuner::Evaluator ev(sim, space, {}, s.seed);
    if (trace) {
      excluded_s = traced_cstuner(s, space, sim, ev, serial_stencil);
    } else {
      core::CsTuner(cli_tune_options(s.seed)).tune(ev, cli_tune_stop());
    }
    record_outcome(s, ev, space);
    s.state = s.virtual_s >= kTuneBudgetS ? "done" : "exhausted";
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.wall_s = since(t0) - excluded_s;
  return s;
}

// --- zoo-search: every registered optimizer through run_optimizer ---------

/// Forwarding decorator that times the optimizer's own calls; everything
/// the driver sees is the inner optimizer's, so results are bit-identical.
class TimedOptimizer final : public search::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<search::Optimizer> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  void bind(tuner::Evaluator& ev) override {
    timed(spans_["search.bind_s"], [&] { inner_->bind(ev); });
  }
  std::vector<space::Setting> propose() override {
    auto batch =
        timed(spans_["search.propose_s"], [&] { return inner_->propose(); });
    spans_["search.proposals"] += static_cast<double>(batch.size());
    return batch;
  }
  void observe(const std::vector<space::Setting>& batch,
               const std::vector<tuner::EvalResult>& results) override {
    timed(spans_["search.observe_s"], [&] { inner_->observe(batch, results); });
    // The driver counts steps on this wrapper; the inner optimizer derives
    // per-step RNG streams from its own count, so keep it in step.
    inner_->note_step();
    spans_["search.steps"] += 1.0;
  }
  bool iteration_boundary() const override {
    return inner_->iteration_boundary();
  }
  bool stop_check_allowed() const override {
    return inner_->stop_check_allowed();
  }
  void finish(tuner::Evaluator& ev) override { inner_->finish(ev); }
  void serialize_state(JsonWriter& json) const override {
    inner_->serialize_state(json);
  }
  bool restore_state(const JsonValue& state) override {
    return inner_->restore_state(state);
  }

 private:
  std::unique_ptr<search::Optimizer> inner_;
  Spans& spans_;
};

Session zoo_session(const std::string& name, const std::string& opt,
                    std::uint64_t workload_seed, bool trace, double budget,
                    std::size_t max_iterations) {
  Session s;
  s.stencil = name;
  s.algo = opt;
  s.seed = session_seed(workload_seed, name, opt);
  const auto t0 = Clock::now();
  try {
    space::SearchSpace space(stencil::make_stencil(name));
    gpusim::Simulator sim(gpusim::arch_by_name(kArch));
    tuner::Evaluator ev(sim, space, {}, s.seed);
    search::OptimizerOptions options;
    options.seed = s.seed;
    std::unique_ptr<search::Optimizer> optimizer =
        search::optimizer_registry().make(opt, options);
    if (trace) {
      optimizer =
          std::make_unique<TimedOptimizer>(std::move(optimizer), s.spans);
    }
    // max_iterations is a hang guard far above any completing session; a
    // session it stops short of its budget is reported as stalled.
    tuner::StopCriteria stop;
    stop.max_virtual_seconds = budget;
    stop.max_iterations = max_iterations;
    double drive_s = 0.0;
    const auto drive = timed(drive_s, [&] {
      return search::run_optimizer(*optimizer, ev, stop);
    });
    record_outcome(s, ev, space);
    if (drive.exhausted) {
      s.state = "exhausted";
    } else if (s.virtual_s >= budget) {
      s.state = "done";
    } else if (s.iterations >= max_iterations) {
      s.state = "stalled";
    }
    if (trace) {
      s.spans["tuner.evaluate_s"] = drive_s - s.spans["search.bind_s"] -
                                    s.spans["search.propose_s"] -
                                    s.spans["search.observe_s"];
      s.spans["tuner.unique_evals"] = static_cast<double>(s.evaluations);
    }
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.wall_s = since(t0);
  return s;
}

/// Repeats whole passes over `one_pass` (always at least one), emitting a
/// record per pass. Another pass starts while it is expected to overshoot
/// `seconds` by at most half a pass, so the measured time is the whole
/// number of passes closest to `seconds`.
void run_passes(double seconds,
                const std::function<void(std::size_t)>& one_pass) {
  const auto t0 = Clock::now();
  double last = 0.0;
  for (std::size_t pass = 0;; ++pass) {
    const auto p0 = Clock::now();
    one_pass(pass);
    last = since(p0);
    JsonWriter j;
    j.begin_object().field("type", "pass").field("pass",
        static_cast<std::uint64_t>(pass)).field("wall_s", last).end_object();
    std::cout << j.str() << '\n' << std::flush;
    if (since(t0) + last / 2 > seconds) break;
  }
}

void emit_end() {
  JsonWriter j;
  j.begin_object();
  j.field("type", "end");
  j.field("peak_rss_mb", peak_rss_mb());
  j.field("threads", static_cast<std::uint64_t>(
                         ThreadPool::global().worker_count()));
  j.end_object();
  std::cout << j.str() << '\n' << std::flush;
}

int cmd_tune_suite(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const bool trace = args.get("trace", "0") == "1";
  const auto stencils = args.list("stencils", stencil::stencil_names());
  const std::string serial = args.get("serial-stencil", "");
  run_passes(args.num("seconds", 0), [&](std::size_t pass) {
    for (const auto& name : stencils) {
      emit(cstuner_session(name, seed, trace, serial), pass);
    }
  });
  emit_end();
  return 0;
}

int cmd_zoo_search(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const bool trace = args.get("trace", "0") == "1";
  const double budget = args.required("budget");
  const auto max_iterations =
      static_cast<std::size_t>(args.required("max-iterations"));
  const auto stencils = args.list("stencils", stencil::stencil_names());
  const auto optimizers = search::optimizer_registry().names();
  run_passes(args.num("seconds", 0), [&](std::size_t pass) {
    for (const auto& name : stencils) {
      for (const auto& opt : optimizers) {
        emit(zoo_session(name, opt, seed, trace, budget, max_iterations), pass);
      }
    }
  });
  emit_end();
  return 0;
}

/// Cold-start probe: everything a first session needs before it can start.
int cmd_ready() {
  std::size_t params = 0;
  for (const auto& name : stencil::stencil_names()) {
    space::SearchSpace space(stencil::make_stencil(name));
    params += space.parameters().size();
  }
  gpusim::Simulator sim(gpusim::arch_by_name(kArch));
  const std::size_t optimizers = search::optimizer_registry().size();
  std::cout << "{\"type\":\"ready\",\"threads\":"
            << ThreadPool::global().worker_count() << ",\"params\":" << params
            << ",\"optimizers\":" << optimizers << "}\n"
            << std::flush;
  return 0;
}

/// gpusim oracle probe: Simulator::profile_times over a fixed, seeded sample
/// of valid settings per stencil; reports the median ns per setting.
int cmd_profile(const Args& args) {
  constexpr std::size_t kSample = 1024;
  constexpr int kRepeats = 15;
  Rng rng(static_cast<std::uint64_t>(args.num("seed", 1)));
  gpusim::Simulator sim(gpusim::arch_by_name(kArch));
  std::vector<double> per_setting_ns;
  double checksum = 0.0;
  std::vector<std::unique_ptr<space::SearchSpace>> spaces;
  std::vector<std::vector<space::Setting>> samples;
  for (const auto& name : stencil::stencil_names()) {
    spaces.push_back(
        std::make_unique<space::SearchSpace>(stencil::make_stencil(name)));
    std::vector<space::Setting> sample;
    for (std::size_t i = 0; i < kSample; ++i) {
      sample.push_back(spaces.back()->random_valid(rng));
    }
    samples.push_back(std::move(sample));
  }
  std::vector<double> out(kSample);
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      sim.profile_times(sim.invariants(spaces[i]->spec()), samples[i], out);
      for (double v : out) checksum += v;
    }
    per_setting_ns.push_back(since(t0) * 1e9 /
                             static_cast<double>(kSample * spaces.size()));
  }
  std::nth_element(per_setting_ns.begin(),
                   per_setting_ns.begin() + kRepeats / 2, per_setting_ns.end());
  JsonWriter j;
  j.begin_object()
      .field("type", "profile")
      .field("ns_per_setting", per_setting_ns[kRepeats / 2])
      .field("repeats", kRepeats)
      .field("finite", std::isfinite(checksum) && checksum > 0.0)
      .end_object();
  std::cout << j.str() << '\n';
  return 0;
}

/// Parses Setting::to_string() output ("TBx=32 ... useShared=on").
std::optional<space::Setting> parse_setting(const std::string& text) {
  space::Setting setting;
  std::size_t seen = 0;
  std::stringstream ss(text);
  for (std::string tok; ss >> tok;) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    bool found = false;
    for (std::size_t i = 0; i < space::kParamCount; ++i) {
      const auto id = static_cast<space::ParamId>(i);
      if (key != space::param_name(id)) continue;
      found = true;
      if (val == "on") {
        setting.set(id, space::kOn);
      } else if (val == "off") {
        setting.set(id, space::kOff);
      } else {
        setting.set(id, std::stoll(val));
      }
    }
    if (!found) return std::nullopt;
    ++seen;
  }
  if (seen != space::kParamCount) return std::nullopt;
  return setting;
}

/// Checks settings reported by the daemon against their space's constraint
/// checker: one "stencil<TAB>setting" line in, one "1" or "0" line out.
int cmd_check_settings() {
  std::map<std::string, std::unique_ptr<space::SearchSpace>> spaces;
  for (std::string line; std::getline(std::cin, line);) {
    const auto tab = line.find('\t');
    bool ok = false;
    if (tab != std::string::npos) {
      const std::string name = line.substr(0, tab);
      auto& space = spaces[name];
      if (!space) {
        space =
            std::make_unique<space::SearchSpace>(stencil::make_stencil(name));
      }
      const auto setting = parse_setting(line.substr(tab + 1));
      ok = setting.has_value() && space->is_valid(*setting);
    }
    std::cout << (ok ? "1" : "0") << '\n';
  }
  return 0;
}

// --- serve-traced: in-process daemon with a timing filesystem -------------

/// Forwarding io::Vfs that counts fsyncs (file and directory), their wall
/// time, and bytes written. Safe to share across the daemon's threads.
class TimingVfs final : public io::Vfs {
 public:
  explicit TimingVfs(io::Vfs& inner) : inner_(inner) {}

  std::string read_file(const std::string& p) override {
    return inner_.read_file(p);
  }
  bool exists(const std::string& p) override { return inner_.exists(p); }
  void mkdirs(const std::string& p) override { inner_.mkdirs(p); }
  std::vector<std::string> list_dir(const std::string& p) override {
    return inner_.list_dir(p);
  }
  void rename(const std::string& a, const std::string& b) override {
    inner_.rename(a, b);
  }
  void unlink(const std::string& p) override { inner_.unlink(p); }
  void truncate(const std::string& p, std::uint64_t n) override {
    inner_.truncate(p, n);
  }
  void fsync_dir(const std::string& p) override {
    const auto t0 = Clock::now();
    inner_.fsync_dir(p);
    note_fsync(t0);
  }
  void copy_file(const std::string& a, const std::string& b) override {
    inner_.copy_file(a, b);
  }
  Handle open(const std::string& p, OpenMode m) override {
    return inner_.open(p, m);
  }
  std::size_t write(Handle h, const char* data, std::size_t size) override {
    const std::size_t n = inner_.write(h, data, size);
    bytes_.fetch_add(n, std::memory_order_relaxed);
    return n;
  }
  void fsync(Handle h) override {
    const auto t0 = Clock::now();
    inner_.fsync(h);
    note_fsync(t0);
  }
  void close(Handle h) override { inner_.close(h); }

  void write_json(JsonWriter& j) const {
    j.field("fsyncs", fsyncs_.load());
    j.field("fsync_s", static_cast<double>(fsync_ns_.load()) * 1e-9);
    j.field("bytes_written", bytes_.load());
  }

 private:
  void note_fsync(Clock::time_point t0) {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    fsync_ns_.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()), std::memory_order_relaxed);
  }

  io::Vfs& inner_;
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> fsync_ns_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

int cmd_serve_traced(const Args& args) {
  TimingVfs vfs(io::Vfs::real());
  serve::ServeOptions options;  // default admission, sync and warm start
  options.state_dir = args.get("state-dir", "serve-state");
  options.vfs = &vfs;
  serve::ServerOptions server_options;
  server_options.port_file = args.get("port-file", "");
  serve::Server::install_signal_handlers();
  serve::SessionManager manager(options);
  serve::Server server(manager, server_options);
  server.run();
  JsonWriter j;
  j.begin_object().field("type", "io");
  vfs.write_json(j);
  j.field("peak_rss_mb", peak_rss_mb());
  j.end_object();
  std::cout << j.str() << '\n' << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench <ready|tune-suite|zoo-search|profile|"
                 "check-settings|serve-traced> [--key value ...]\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args = parse_args(argc, argv);
    if (cmd == "ready") return cmd_ready();
    if (cmd == "tune-suite") return cmd_tune_suite(args);
    if (cmd == "zoo-search") return cmd_zoo_search(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "check-settings") return cmd_check_settings();
    if (cmd == "serve-traced") return cmd_serve_traced(args);
    std::cerr << "unknown subcommand: " << cmd << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
