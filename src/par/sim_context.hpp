#pragma once
// SimContext: the ownership root for everything an engine used to reach
// through process-global state.
//
//   * EnvConfig — the one-time SIMAS_* environment snapshot. Engines and
//     the experiment runner read flags from here, never from getenv().
//   * SiteTable — the process-wide interned kernel-site metadata (shared
//     by design: sites are immutable and pointer-stable, see
//     site_table.hpp).
//   * an optional shared ThreadPool — when set, engines built under this
//     context borrow it instead of owning worker threads, so N concurrent
//     experiments multiplex one host-thread budget (the service layer's
//     execution substrate). This is the one way to share a pool: neither
//     EngineConfig nor ExperimentConfig carries a pool of its own.
//
// SimContext::process() is the default used when nothing is threaded
// through: it is constructed once and immutable afterwards, so it is
// *not* a mutable singleton — all mutable per-run state lives in the
// Engine (and in the service layer's per-job structures).

#include "par/env_config.hpp"
#include "par/site_table.hpp"

namespace simas::par {

class ThreadPool;

class SimContext {
 public:
  /// Context over the process environment snapshot and site table.
  SimContext() : env_(EnvConfig::process()) {}
  /// Context with an explicit environment (tests, service layer).
  explicit SimContext(EnvConfig env, SiteTable* sites = nullptr)
      : env_(env), sites_(sites) {}

  const EnvConfig& env() const { return env_; }
  SiteTable& sites() const {
    return sites_ != nullptr ? *sites_ : SiteTable::process();
  }

  /// Shared host execution pool; nullptr = each engine owns its threads.
  ThreadPool* shared_pool() const { return shared_pool_; }
  void set_shared_pool(ThreadPool* pool) { shared_pool_ = pool; }

  /// The immutable default context (process env snapshot, process site
  /// table, no shared pool).
  static const SimContext& process();

 private:
  EnvConfig env_;
  SiteTable* sites_ = nullptr;  ///< nullptr = SiteTable::process()
  ThreadPool* shared_pool_ = nullptr;
};

}  // namespace simas::par
