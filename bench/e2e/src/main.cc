// End-to-end benchmark of the TransEdge simulator.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--out FILE]
//
// Runs one workload (build, warm-up, fixed simulated window, drain) on
// seeds derived from --seed, repeating until --seconds of wall time have
// passed: untraced, at least once per derived seed; with --trace 1, at
// least one (untraced, traced) pair of one seed. Simulated metrics are
// the mean over the derived seeds, and every repeat of a seed (traced or
// not) must reproduce them exactly; host times are medians over the
// untraced repeats. Prints `workload metric value unit` for every
// metric, then one JSON line: the end-to-end metrics untraced, the
// per-layer metrics traced. Exits 1 when a correctness gate fails, 2 on
// bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "probe.h"
#include "workload.h"

namespace transedge::e2e {
namespace {

/// The metrics BENCHMARK.json lists as end-to-end.
const char* const kEndToEnd[] = {"p50_ms",          "p99_ms",
                                 "tput_per_s",      "slo_pct",
                                 "host_s_per_sim_s", "setup_s",
                                 "peak_rss_mb"};
/// Metric-name prefixes of the per-layer metrics.
const char* const kLayers[] = {"sim.",   "wire.",   "consensus.", "pipeline.",
                               "twopc.", "ro.",     "client.",    "watch.",
                               "storage.", "trace."};
/// Simulated metrics checked for steady state across the window halves.
const char* const kSteady[] = {"p50_ms", "p99_ms", "tput_per_s", "slo_pct"};
/// Upper bound on one run, below the 180 s a run may take.
constexpr double kMaxRunSeconds = 150;
/// Every run averages its simulated metrics over this many seeds derived
/// from --seed: one seed's window is short, and averaging steadies the
/// metrics without lengthening any window.
constexpr size_t kSubSeeds = 3;

uint64_t SubSeed(uint64_t seed, int sub) {
  return seed * 1000 + static_cast<uint64_t>(sub);
}

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 15;
  bool trace = false;
  std::string trace_out;
  std::string out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--out FILE]\nworkloads:");
  for (const Spec& s : AllSpecs()) std::fprintf(stderr, " %s", s.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opt.seconds <= 0) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--out") {
      opt.out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindSpec(opt.workload) == nullptr) {
    Usage("unknown workload '" + opt.workload + "'");
  }
  return opt;
}

/// Metric bounds from BENCHMARK.json in the working directory (the
/// repository root); empty when it is not there.
std::map<std::string, double> ReadBounds() {
  std::ifstream in("BENCHMARK.json");
  if (!in) return {};
  std::stringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  const std::regex entry(
      R"re("name"\s*:\s*"([^"]+)"[^{}]*"bound"\s*:\s*([0-9.eE+-]+))re");
  std::map<std::string, double> bounds;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), entry);
       it != std::sregex_iterator(); ++it) {
    bounds[(*it)[1]] = std::stod((*it)[2]);
  }
  return bounds;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

bool IsLayer(const std::string& name) {
  for (const char* prefix : kLayers) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonMetrics(const Metrics& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += JsonString(name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  const Spec& spec = *FindSpec(opt.workload);
  const KeyIndex keys(spec);
  const double window_s = sim::ToSeconds(spec.window);

  // Repeat i runs sub-seed i % kSubSeeds (untraced), or with --trace the
  // pair (untraced, traced) of sub-seed (i / 2) % kSubSeeds.
  struct Repeat {
    int sub;
    RepeatResult result;
  };
  std::vector<Repeat> plain, traced;
  std::vector<Metrics> layers;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const bool tracing = opt.trace && i % 2 == 1;
    const int sub = (opt.trace ? i / 2 : i) % kSubSeeds;
    std::unique_ptr<Probe> probe;
    if (tracing) {
      probe = std::make_unique<Probe>(!opt.trace_out.empty() && traced.empty());
    }
    const auto repeat_start = std::chrono::steady_clock::now();
    RepeatResult r = RunOnce(spec, keys, SubSeed(opt.seed, sub), probe.get());
    if (tracing) {
      layers.push_back(probe->Layers(window_s));
      if (traced.empty() && !opt.trace_out.empty() &&
          !probe->WriteChromeTrace(opt.trace_out)) {
        std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
      }
      traced.push_back({sub, std::move(r)});
    } else {
      plain.push_back({sub, std::move(r)});
    }
    const auto now = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(now - start).count();
    const double last =
        std::chrono::duration<double>(now - repeat_start).count();
    const bool minimum =
        opt.trace ? !traced.empty() : plain.size() >= kSubSeeds;
    const bool pair_done = !opt.trace || tracing;
    if (minimum && pair_done &&
        (elapsed >= opt.seconds ||
         elapsed + last * (opt.trace ? 2 : 1) > kMaxRunSeconds)) {
      break;
    }
  }

  // Correctness: every gate of every repeat, and exact agreement of each
  // repeat's simulated results (traced or not) with the first run of
  // its sub-seed.
  std::vector<std::string> violations;
  std::vector<const RepeatResult*> firsts;  // One per sub-seed run.
  for (const Repeat& p : plain) {
    if (static_cast<size_t>(p.sub) == firsts.size()) {
      firsts.push_back(&p.result);
    }
  }
  auto check = [&](const Repeat& rep, const char* what) {
    const RepeatResult& r = rep.result;
    const RepeatResult& first = *firsts[static_cast<size_t>(rep.sub)];
    for (const std::string& v : r.violations) violations.push_back(v);
    bool same = r.digest == first.digest && r.sim.size() == first.sim.size();
    for (const auto& [name, metric] : first.sim) {
      auto it = r.sim.find(name);
      same = same && it != r.sim.end() && it->second.value == metric.value;
    }
    if (!same) {
      violations.push_back(std::string(what) +
                           " run's simulated results differ from the first "
                           "run of its seed");
    }
  };
  for (const Repeat& r : plain) check(r, "a repeated");
  for (const Repeat& r : traced) check(r, "the traced");
  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end()),
                   violations.end());

  // Simulated metrics: the mean over the sub-seeds. Host metrics: the
  // median over every untraced repeat.
  Metrics all;
  uint64_t attempted = 0, failed = 0;
  for (const RepeatResult* r : firsts) {
    attempted += r->attempted;
    failed += r->failed;
    for (const auto& [name, metric] : r->sim) {
      Metric& m = all[name];
      m.value += metric.value / static_cast<double>(firsts.size());
      m.unit = metric.unit;
    }
  }
  // Host time per window slice, pooled over repeats: the median ignores
  // a slice a burst of load from elsewhere on the machine spoiled.
  auto median_slice = [](const std::vector<Repeat>& repeats) {
    std::vector<double> slices;
    for (const Repeat& r : repeats) {
      slices.insert(slices.end(), r.result.slice_host_s.begin(),
                    r.result.slice_host_s.end());
    }
    return Median(slices);
  };
  std::vector<double> setup;
  for (const Repeat& p : plain) setup.push_back(p.result.setup_s);
  all["setup_s"] = {Median(setup), "s"};
  const double slice_s =
      window_s / static_cast<double>(plain.front().result.slice_host_s.size());
  all["host_s_per_sim_s"] = {median_slice(plain) / slice_s, "s/s"};
  for (const auto& [name, metric] : firsts.front()->host) {
    std::vector<double> values;
    for (const Repeat& p : plain) {
      values.push_back(p.result.host.at(name).value);
    }
    all[name] = {Median(values), metric.unit};
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  all["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};
  if (opt.trace) {
    for (const auto& [name, metric] : layers.front()) {
      std::vector<double> values;
      for (const Metrics& m : layers) values.push_back(m.at(name).value);
      all[name] = {Median(values), metric.unit};
    }
    all["trace.overhead_pct"] = {
        100.0 * (median_slice(traced) / median_slice(plain) - 1.0), "%"};
  }

  // Steady state: the two halves of the window agree within the bound.
  const std::map<std::string, double> bounds = ReadBounds();
  std::vector<std::string> unsteady;
  for (const char* name : kSteady) {
    auto bound = bounds.find(name);
    if (bound == bounds.end()) continue;
    const double h1 = all.at(std::string(name) + ".h1").value;
    const double h2 = all.at(std::string(name) + ".h2").value;
    if (h1 != 0 && std::abs(h2 / h1 - 1.0) > bound->second) {
      unsteady.push_back(name);
    }
  }

  for (const auto& [name, metric] : all) {
    std::printf("%s %s %.17g %s\n", spec.name.c_str(), name.c_str(),
                metric.value, metric.unit.c_str());
  }
  std::printf("%s repeats %zu untraced, %zu traced\n", spec.name.c_str(),
              plain.size(), traced.size());
  for (const std::string& name : unsteady) {
    std::printf("%s UNSTEADY %s: window halves differ by more than its bound\n",
                spec.name.c_str(), name.c_str());
  }
  for (const std::string& v : violations) {
    std::printf("%s GATE FAILED: %s\n", spec.name.c_str(), v.c_str());
  }

  const bool correct = violations.empty();
  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    out << "{\"workload\": " << JsonString(spec.name) << ", \"seed\": "
        << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"violations\": [";
    for (size_t i = 0; i < violations.size(); ++i) {
      out << (i > 0 ? ", " : "") << JsonString(violations[i]);
    }
    out << "], \"unsteady\": [";
    for (size_t i = 0; i < unsteady.size(); ++i) {
      out << (i > 0 ? ", " : "") << JsonString(unsteady[i]);
    }
    out << "], \"metrics\": " << JsonMetrics(all) << "}\n";
  }

  Metrics reported;
  for (const auto& [name, metric] : all) {
    bool e2e = false;
    for (const char* n : kEndToEnd) e2e = e2e || name == n;
    if (opt.trace ? IsLayer(name) : e2e) reported[name] = metric;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JsonMetrics(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace transedge::e2e

int main(int argc, char** argv) { return transedge::e2e::Main(argc, argv); }
