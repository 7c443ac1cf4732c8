// physics_fingerprint: pins the solver's physics bits across commits.
//
// Runs a fixed set of small solver configurations and reduces each to a
// fingerprint: an FNV-1a hash over the bytes of the final state fields
// (rho, temp, vr, vt, vp, br, bt, bp; interior cells, every rank in rank
// order) plus the iteration count of every implicit solve (PFSS, and the
// viscosity and conduction solves of every step). Same-binary A/B checks
// cannot see a cell-body change that moves every run equally; a committed
// fingerprint can.
//
// Every case runs at each host thread count in kThreadCounts (threads per
// rank) and must fingerprint identically at all of them: block
// partitioning and partial-sum order depend on the problem shape only,
// never on the thread count. The baseline holds one entry per case.
//
// Usage:
//   physics_fingerprint                 print the fingerprints as JSON
//   physics_fingerprint --check FILE    compare with a committed baseline;
//                                       exits 1 on any difference
//
// The rule is exact: a hash or an iteration count that differs from the
// baseline, or between thread counts, fails. Regenerate the baseline only for a change that moves the
// physics on purpose, and say why in CHANGES.md.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/run_experiment.hpp"
#include "mhd/pfss.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "util/json.hpp"
#include "variants/code_version.hpp"

using namespace simas;

namespace {

struct Case {
  const char* name;
  variants::CodeVersion version;
  int nranks;
  bool overlap = false;
  bool graph_replay = false;
  bool um_hints = false;
  bool pfss = false;
  bool sts = false;
};

const std::vector<Case>& cases() {
  using variants::CodeVersion;
  static const std::vector<Case> all = {
      {.name = "A/r1", .version = CodeVersion::A, .nranks = 1},
      {.name = "A/r1/overlap", .version = CodeVersion::A, .nranks = 1,
       .overlap = true},
      {.name = "A/r2", .version = CodeVersion::A, .nranks = 2},
      {.name = "A/r2/overlap", .version = CodeVersion::A, .nranks = 2,
       .overlap = true},
      {.name = "A/r8", .version = CodeVersion::A, .nranks = 8},
      {.name = "A/r8/overlap", .version = CodeVersion::A, .nranks = 8,
       .overlap = true},
      {.name = "A/r2/pfss/graph", .version = CodeVersion::A, .nranks = 2,
       .graph_replay = true, .pfss = true},
      {.name = "D2XU/r2/um_hints", .version = CodeVersion::D2XU, .nranks = 2,
       .overlap = true, .um_hints = true},
      {.name = "A/r2/sts", .version = CodeVersion::A, .nranks = 2,
       .sts = true},
  };
  return all;
}

constexpr int kSteps = 3;
constexpr int kThreadCounts[] = {1, 3};

constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;

u64 fnv1a(u64 h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t b = 0; b < n; ++b) {
    h ^= p[b];
    h *= kFnvPrime;
  }
  return h;
}

struct Fingerprint {
  u64 hash = 0;
  int pfss_iters = 0;
  std::vector<int> visc_iters, cond_iters;
};

Fingerprint run_case(const Case& cs, int threads) {
  grid::GridConfig g = bench_support::bench_grid();
  std::vector<u64> rank_hash(static_cast<std::size_t>(cs.nranks), 0);
  Fingerprint fp;
  std::mutex mutex;

  mpisim::World world(cs.nranks);
  world.run([&](int rank) {
    par::EngineConfig ecfg =
        variants::engine_config(cs.version, gpusim::a100_40gb(), threads);
    ecfg.overlap_halo = cs.overlap;
    ecfg.graph_replay = cs.graph_replay;
    ecfg.um_hints = cs.um_hints;
    par::Engine engine(ecfg);
    mpisim::Comm comm(world, rank, engine);
    mhd::SolverConfig scfg;
    scfg.grid = g;
    scfg.phys.sts_conduction = cs.sts;
    mhd::MasSolver solver(engine, comm, scfg);
    solver.initialize();

    Fingerprint local;
    if (cs.pfss) {
      bench_support::BoundaryConfig b;
      b.enabled = true;
      local.pfss_iters =
          mhd::pfss_initialize(solver.context(),
                               bench_support::boundary_surface_br(b),
                               static_cast<real>(b.tol), b.maxit)
              .iterations;
    }
    for (int s = 0; s < kSteps; ++s) {
      const mhd::StepStats st = solver.step();
      local.visc_iters.push_back(st.viscosity_iters);
      local.cond_iters.push_back(st.conduction_iters);
    }

    u64 h = kFnvOffset;
    for (field::Field* f : solver.state().all_persistent()) {
      f->update_host();
      f->note_host_read();
      const field::Array3& a = f->a();
      for (idx k = 0; k < a.n3(); ++k)
        for (idx j = 0; j < a.n2(); ++j)
          for (idx i = 0; i < a.n1(); ++i) {
            const real v = a(i, j, k);
            h = fnv1a(h, &v, sizeof(v));
          }
    }

    std::lock_guard<std::mutex> lock(mutex);
    rank_hash[static_cast<std::size_t>(rank)] = h;
    if (rank == 0) fp = local;
  });

  fp.hash = kFnvOffset;
  for (const u64 h : rank_hash) fp.hash = fnv1a(fp.hash, &h, sizeof(h));
  return fp;
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

json::Value int_array(const std::vector<int>& v) {
  json::Value a{json::Value::Array{}};
  for (const int x : v) a.push_back(x);
  return a;
}

json::Value to_json(const Case& cs, const Fingerprint& fp) {
  json::Value e;
  e.set("name", cs.name);
  e.set("hash", hex(fp.hash));
  e.set("pfss_iters", fp.pfss_iters);
  e.set("visc_iters", int_array(fp.visc_iters));
  e.set("cond_iters", int_array(fp.cond_iters));
  return e;
}

/// One entry per case, from the first thread count. Every other thread
/// count that fingerprints differently is printed and counted in
/// `mismatches`.
json::Value::Array all_fingerprints(int& mismatches) {
  json::Value::Array entries;
  for (const Case& cs : cases()) {
    json::Value first;
    for (const int threads : kThreadCounts) {
      json::Value e = to_json(cs, run_case(cs, threads));
      if (threads == kThreadCounts[0]) {
        first = std::move(e);
      } else if (json::to_string(e) != json::to_string(first)) {
        std::cerr << "FAIL  " << threads << " threads/rank: "
                  << json::to_string(e) << "\n  " << kThreadCounts[0]
                  << " thread/rank: " << json::to_string(first) << '\n';
        ++mismatches;
      }
    }
    entries.push_back(std::move(first));
  }
  return entries;
}

int check(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "physics_fingerprint: cannot open " << path << '\n';
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value base;
  std::string err;
  if (!json::parse(ss.str(), &base, &err)) {
    std::cerr << "physics_fingerprint: " << path << ": " << err << '\n';
    return 2;
  }
  const json::Value* base_entries = base.find("entries");
  if (base_entries == nullptr || !base_entries->is_array()) {
    std::cerr << "physics_fingerprint: " << path << ": no entries\n";
    return 2;
  }

  const json::Value::Array& want = base_entries->as_array();
  int failures = 0;
  const json::Value::Array got = all_fingerprints(failures);
  if (want.size() != got.size()) {
    std::cout << "entry count: baseline " << want.size() << ", now "
              << got.size() << '\n';
    ++failures;
  }
  for (std::size_t e = 0; e < std::min(want.size(), got.size()); ++e) {
    const std::string w = json::to_string(want[e]);
    const std::string g = json::to_string(got[e]);
    const bool same = w == g;
    std::cout << (same ? "ok    " : "FAIL  ") << g << '\n';
    if (!same) {
      std::cout << "  baseline " << w << '\n';
      ++failures;
    }
  }
  std::cout << (failures == 0 ? "physics fingerprints match\n"
                              : "physics fingerprints differ\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) return check(argv[2]);
  if (argc != 1) {
    std::cerr << "usage: physics_fingerprint [--check FILE]\n";
    return 2;
  }
  // One entry per line, so a baseline diff shows which run moved.
  int mismatches = 0;
  const json::Value::Array entries = all_fingerprints(mismatches);
  std::cout << "{\n  \"grid\": \"bench_grid\",\n  \"steps\": " << kSteps
            << ",\n  \"entries\": [\n";
  for (std::size_t e = 0; e < entries.size(); ++e)
    std::cout << "    " << json::to_string(entries[e])
              << (e + 1 < entries.size() ? ",\n" : "\n");
  std::cout << "  ]\n}\n";
  return mismatches == 0 ? 0 : 1;
}
