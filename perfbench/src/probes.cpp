#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "gpusim/device_spec.hpp"
#include "par/engine.hpp"
#include "par/site_table.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workloads.hpp"

namespace perfbench {

double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void warm_cpu(double seconds, int threads) {
  std::vector<std::thread> spinners;
  for (int t = 0; t < threads; ++t)
    spinners.emplace_back([seconds] {
      volatile double x = 1.0;
      const double end = now_seconds() + seconds;
      while (now_seconds() < end)
        for (int i = 0; i < 4096; ++i) x = x * 1.0000001 + 1e-9;
    });
  for (std::thread& t : spinners) t.join();
}

double triad_gbs() {
  const auto n = static_cast<std::size_t>(kTriadDoubles);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 0.4;
  const auto sweep = [&] {
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
  };
  sweep();
  std::vector<double> rates;
  for (int rep = 0; rep < 9; ++rep) {
    const double t0 = now_seconds();
    for (int it = 0; it < 4; ++it) sweep();
    const double dt = now_seconds() - t0;
    rates.push_back(4.0 * 3.0 * 8.0 * static_cast<double>(n) / dt / 1e9);
  }
  // Keeps the sweeps observable to the optimiser.
  if (a[n / 2] != 1.0 + s * 2.0) std::fprintf(stderr, "triad: bad sum\n");
  return percentile(rates, 0.5);
}

double flight_record_ns() {
  simas::telemetry::FlightRecorder& fr =
      simas::telemetry::FlightRecorder::process();
  constexpr int kCalls = 1 << 18;
  for (int i = 0; i < 1 << 14; ++i)
    fr.record(simas::telemetry::FlightKind::Launch, 0, 0, 0.0, 0, 0, 512);
  std::vector<double> ns;
  for (int rep = 0; rep < 9; ++rep) {
    const double t0 = now_seconds();
    for (int i = 0; i < kCalls; ++i)
      fr.record(simas::telemetry::FlightKind::Launch, 0, 0, 0.0, 0, 0, 512);
    ns.push_back((now_seconds() - t0) / kCalls * 1e9);
  }
  return percentile(ns, 0.5);
}

double launch_us(simas::variants::CodeVersion version, int threads,
                 simas::par::Range3 range) {
  namespace par = simas::par;
  par::Engine engine(
      simas::variants::engine_config(version, simas::gpusim::a100_40gb(),
                                     threads));
  const auto id = engine.memory().register_array(
      "perfbench_probe", range.count() * static_cast<simas::i64>(8));
  engine.memory().enter_data(id);
  static const par::KernelSite& site =
      SIMAS_SITE("perfbench_launch_probe", par::SiteKind::ParallelLoop, 0);
  const auto launch = [&] {
    engine.for_each(site, range, {par::out(id)},
                    [](simas::idx, simas::idx, simas::idx) {});
  };
  for (int i = 0; i < 50; ++i) launch();
  constexpr int kBatch = 200;
  std::vector<double> us;
  for (int rep = 0; rep < 9; ++rep) {
    const double t0 = now_seconds();
    for (int i = 0; i < kBatch; ++i) launch();
    us.push_back((now_seconds() - t0) / kBatch * 1e6);
  }
  engine.memory().exit_data(id);
  return percentile(us, 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::int64_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return v;
  }
  return 0;
}

std::vector<std::pair<std::string, std::string>> machine_context(
    double triad) {
  return {
      {"nproc", std::to_string(nproc())},
      {"llc_bytes", std::to_string(llc_bytes())},
      {"triad_array_bytes", std::to_string(kTriadDoubles * 8)},
      {"triad_arrays", "3"},
      {"calib.triad_gbs", json_number(triad)},
      {"roofline_claimed", "false"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

}  // namespace perfbench
