// An interactive shell over the three Figure 1 interfaces:
//
//   * RDL  — Define ... / Insert ...           (resource definition)
//   * PL   — Qualify / Require / Substitute    (policy definition)
//   * RQL  — Select ... For ... With ...       (resource queries)
//
// plus management verbs:
//
//   policies            list the policy base
//   allocate <type> <id>  / release <type> <id>
//   explain <rql>       full decision report (stages, PIDs) without allocating
//   open <dir>          open a durable home: paged B-tree + WAL recovery
//                       (exclusive lockfile; stale locks are broken),
//                       then journal every later mutation
//   save <dir>          checkpoint the open home / export this session
//   status              health report (degraded state, WAL, replication)
//   replica <dir>       attach a follower store; WAL frames ship to it
//   sync                pump the replication link until the follower is
//                       caught up
//   partition on|off    sever / heal the replication link
//   failover            promote the follower (fenced epoch bump) and
//                       continue the session on it
//   shards <dir> <n>    open a sharded cluster (n primary+standby pairs);
//                       RDL/PL/RQL then route by the current tenant key
//   tenant <name>       set the routing key (prints its home shard)
//   kill <i>            crash shard i's primary, promote its standby,
//                       re-attach a fresh standby
//   rebalance <i>       migrate shard i onto a fresh home (chunked
//                       snapshot catch-up, epoch-fenced cutover)
//   demo                load the paper's running example
//   help, quit
//
// Degraded mutations fail fast with a typed reason plus a repair hint
// (checkpoint for a broken WAL, failover/heal for a lost replica link).
//
// Run interactively, or pipe a script:
//   echo "demo
//   Select ContactInfo From Engineer Where Location = 'PA' For Programming
//   With NumberOfLines = 35000 And Location = 'Mexico'" | ./build/examples/wfrm_shell

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include <fstream>

#include "analysis/workflow_analyzer.h"
#include "analysis/workflow_spec.h"
#include "common/retry.h"
#include "core/resource_manager.h"
#include "org/rdl_dump.h"
#include "org/rdl_parser.h"
#include "policy/analyzer.h"
#include "policy/pl_dump.h"
#include "policy/policy_manager.h"
#include "shard/shard_cluster.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "store/durable_rm.h"
#include "store/replication.h"
#include "testutil/paper_org.h"

namespace {

using namespace wfrm;  // NOLINT

struct Shell {
  std::unique_ptr<org::OrgModel> org = std::make_unique<org::OrgModel>();
  std::unique_ptr<policy::PolicyStore> store =
      std::make_unique<policy::PolicyStore>(org.get());
  std::unique_ptr<core::ResourceManager> rm =
      std::make_unique<core::ResourceManager>(org.get(), store.get());
  /// Non-null after `open <dir>`: every mutation is then journaled to
  /// the directory's WAL and survives a crash or restart.
  std::unique_ptr<store::DurableResourceManager> durable;
  /// Replication pair, non-null after `replica <dir>`: a standby store
  /// fed by a WAL shipper over an in-process link (with a partition
  /// toggle for demonstrating degraded mode and failover).
  std::unique_ptr<store::DurableResourceManager> replica;
  std::unique_ptr<store::ReplicaApplier> applier;
  std::unique_ptr<store::InProcessTransport> link;
  std::unique_ptr<store::FaultInjectingTransport> chaos_link;
  std::unique_ptr<store::WalShipper> shipper;
  /// Sharded mode, non-null after `shards <dir> <n>`: RDL/PL/RQL route
  /// through the router under the current tenant's home shard.
  std::unique_ptr<shard::ShardCluster> cluster;
  std::unique_ptr<shard::ShardMap> shard_map;
  std::unique_ptr<shard::ShardRouter> router;
  std::string tenant = "default";

  /// In sharded mode, the current tenant's home primary (pinned so
  /// references handed out by Org()/Store()/Rm() stay alive across a
  /// concurrent failover). Null otherwise, or while a shard is offline
  /// between a kill and its promotion.
  std::shared_ptr<store::DurableResourceManager> pinned_home;

  store::DurableResourceManager* TenantHome() {
    if (!cluster) return nullptr;
    pinned_home = cluster->Primary(shard_map->Resolve(tenant));
    return pinned_home.get();
  }

  org::OrgModel& Org() {
    if (auto* home = TenantHome()) return home->org();
    return durable ? durable->org() : *org;
  }
  policy::PolicyStore& Store() {
    if (auto* home = TenantHome()) return home->store();
    return durable ? durable->store() : *store;
  }
  core::ResourceManager& Rm() {
    if (auto* home = TenantHome()) return home->rm();
    return durable ? durable->rm() : *rm;
  }

  void DropReplication() {
    shipper.reset();
    chaos_link.reset();
    link.reset();
    applier.reset();
    replica.reset();
  }

  /// One quiet replication pump after each command — the shell's
  /// equivalent of a background shipping loop.
  void PumpReplication() {
    if (shipper) (void)shipper->Pump();
    if (cluster) (void)cluster->PumpAll();
  }

  void DropShards() {
    router.reset();
    shard_map.reset();
    pinned_home.reset();
    cluster.reset();
  }

  /// Prints a mutation outcome; a typed kDegraded refusal also gets the
  /// matching repair hint so the operator knows which verb heals it.
  void ReportMutation(const Status& st) {
    if (st.ok()) {
      std::cout << "ok\n";
      return;
    }
    std::cout << st.ToString() << "\n";
    if (st.code() != StatusCode::kDegraded) return;
    const std::string& reason = st.message();
    const bool wal_broken =
        reason.find("wal") != std::string::npos ||
        reason.find("WAL") != std::string::npos ||
        (durable && !durable->wal_healthy());
    if (wal_broken) {
      std::cout << "  repair: 'save' — a checkpoint commits pages.db "
                   "and starts a fresh WAL\n";
    } else if (cluster) {
      std::cout << "  repair: 'kill <i>' promotes the shard's standby; "
                   "'partition <i> off' heals a severed link\n";
    } else {
      std::cout << "  repair: 'failover' promotes the replica; "
                   "'partition off' heals the link\n";
    }
  }

  void PrintShardStatus() {
    for (size_t s = 0; s < cluster->num_shards(); ++s) {
      const shard::ShardStatus st = cluster->StatusOf(s);
      std::cout << "  shard " << s << ": " << st.primary_dir << " (epoch "
                << st.epoch << ", seq " << st.last_seq << ", "
                << (st.has_standby
                        ? "standby lag " + std::to_string(st.lag_records)
                        : "NO STANDBY")
                << ")";
      if (st.partitioned) std::cout << " PARTITIONED";
      if (st.degraded) std::cout << " DEGRADED: " << st.degraded_reason;
      if (st.diverged) std::cout << " DIVERGED";
      std::cout << "\n";
    }
    std::cout << "  tenant '" << tenant << "' -> shard "
              << shard_map->Resolve(tenant) << "\n";
  }

  void PrintStatus() {
    if (!durable) {
      std::cout << "mode: volatile (in-memory only; 'open <dir>' for "
                   "durability)\n";
      return;
    }
    std::cout << "mode: durable home " << durable->dir() << " (last seq "
              << durable->last_seq() << ")\n";
    std::cout << "wal: " << (durable->wal_healthy() ? "healthy" : "BROKEN")
              << "\n";
    if (durable->degraded()) {
      std::cout << "health: DEGRADED — " << durable->degraded_reason()
                << " (reads keep serving; mutations fail fast)\n";
    } else {
      std::cout << "health: ok\n";
    }
    if (shipper) {
      std::cout << "replica: " << replica->dir() << " (epoch "
                << shipper->epoch() << ", lag " << shipper->lag_records()
                << " records / " << shipper->lag_bytes() << " bytes";
      if (chaos_link->partitioned()) std::cout << ", link PARTITIONED";
      if (shipper->fenced()) std::cout << ", FENCED";
      if (shipper->divergence_detected() || applier->diverged()) {
        std::cout << ", DIVERGED";
      }
      std::cout << ")\n";
    }
  }

  void LoadDemo() {
    auto world = testutil::BuildPaperWorld();
    if (!world.ok()) {
      std::cout << "demo failed: " << world.status().ToString() << "\n";
      return;
    }
    durable.reset();
    org = std::move(world->org);
    store = std::move(world->store);
    rm = std::make_unique<core::ResourceManager>(org.get(), store.get());
    std::cout << "loaded the paper's organization and policy base "
              << "(Figures 2, 3, 5, 6, 8, 9)\n";
  }

  void ListPolicies() {
    for (const auto& q : Store().ListQualifications()) {
      std::cout << "  #" << q.pid << "  " << q.policy.ToString() << "\n";
    }
    auto reqs = Store().ListRequirements();
    if (reqs.ok()) {
      for (const auto& g : *reqs) {
        std::cout << "  group " << g.group << "  Require " << g.resource;
        if (!g.where_clause.empty()) {
          std::cout << " Where " << g.where_clause;
        }
        std::cout << " For " << g.activity << "\n";
        for (const std::string& r : g.ranges) {
          std::cout << "      With " << r << "\n";
        }
      }
    }
    auto subs = Store().ListSubstitutions();
    if (subs.ok()) {
      for (const auto& g : *subs) {
        std::cout << "  group " << g.group << "  Substitute " << g.resource;
        if (!g.where_clause.empty()) std::cout << " Where " << g.where_clause;
        std::cout << " By " << g.substituting_resource;
        if (!g.substituting_where.empty()) {
          std::cout << " Where " << g.substituting_where;
        }
        std::cout << " For " << g.activity << "\n";
      }
    }
  }

  void Explain(const std::string& rql) {
    // The full per-stage decision report (qualification fan-out,
    // requirement conjuncts with their PIDs, substitution alternatives,
    // availability) — enforcement runs, but nothing is allocated.
    if (durable && durable->degraded()) {
      std::cout << "note: store is degraded (" << durable->degraded_reason()
                << ") — reads like this keep serving, mutations fail fast\n";
    }
    auto report = Rm().Explain(rql);
    if (!report.ok()) {
      std::cout << "error: " << report.status().ToString() << "\n";
      return;
    }
    std::cout << *report;
  }

  void Submit(const std::string& rql) {
    auto outcome = cluster ? router->Enforce(tenant, rql) : Rm().Submit(rql);
    if (!outcome.ok()) {
      std::cout << "error: " << outcome.status().ToString() << "\n";
      if (outcome.status().code() == StatusCode::kDegraded) {
        std::cout << "  (reads can be served from the degraded shard with "
                     "read_on_degraded routers; this shell routes strictly)\n";
      }
      return;
    }
    for (const auto& q : outcome->primary_queries) {
      std::cout << "  enforced: " << q << "\n";
    }
    for (const auto& q : outcome->alternative_queries) {
      std::cout << "  alternative: " << q << "\n";
    }
    if (!outcome->ok()) {
      std::cout << "  " << outcome->status.ToString() << "\n";
      return;
    }
    std::cout << outcome->resources.ToString();
  }

  // Returns false on quit.
  bool Dispatch(const std::string& line) {
    std::istringstream words(line);
    std::string verb;
    words >> verb;
    std::string lower = AsciiToLower(verb);

    if (lower.empty()) return true;
    if (lower == "quit" || lower == "exit") return false;
    if (lower == "help") {
      std::cout
          << "  Define/Insert ...   RDL (types, relationships, resources)\n"
          << "  Qualify/Require/Substitute ...   PL (policies)\n"
          << "  Select ... For ... With ...      RQL (resource query)\n"
          << "  explain <rql>       full decision report without allocating\n"
          << "  why <rql>           per-policy applicability verdicts\n"
          << "  policies            list the policy base\n"
          << "  allocate <type> <id> | release <type> <id>\n"
          << "  analyze             policy-base consistency report\n"
          << "  analyze <file> [k] [valued]   workflow satisfiability\n"
          << "                      report: staffing witness or minimal\n"
          << "                      UNSAT core, plus k-resiliency when\n"
          << "                      k > 0 and min-cost staffing when\n"
          << "                      'valued'\n"
          << "  open <dir>          open a durable home (paged B-tree +\n"
          << "                      WAL); mutations are journaled from\n"
          << "                      then on. Takes an exclusive lockfile:\n"
          << "                      a second open of a live home fails\n"
          << "                      fast; a stale lock left by a dead\n"
          << "                      process is broken automatically\n"
          << "  save <dir>          checkpoint the open home, or write a\n"
          << "                      fresh durable home from this session\n"
          << "  status              health report (degraded state, WAL,\n"
          << "                      replication lag/epoch)\n"
          << "  stats               retrieval/cache counters (compiled\n"
          << "                      tables, rewrite memo, epoch);\n"
          << "                      with a cluster open, also per-shard\n"
          << "                      admission queue depth, shed/rejected\n"
          << "                      counts and breaker state\n"
          << "  replica <dir>       attach a follower store fed by WAL\n"
          << "                      shipping\n"
          << "  sync                pump replication until caught up\n"
          << "  partition on|off    sever / heal the replication link\n"
          << "  failover            promote the follower (fenced epoch\n"
          << "                      bump) and continue the session on it\n"
          << "  shards <dir> <n>    open a sharded cluster of n\n"
          << "                      primary+standby pairs; RDL/PL/RQL then\n"
          << "                      route by the current tenant key\n"
          << "  tenant <name>       set the routing key (prints home shard)\n"
          << "  kill <i>            crash shard i's primary, promote its\n"
          << "                      standby, re-attach a fresh standby\n"
          << "  rebalance <i>       migrate shard i onto a fresh home\n"
          << "  partition <i> on|off  sever / heal shard i's standby link\n"
          << "  load <file>         read a plain-text RDL+PL script\n"
          << "  demo                load the paper's example org\n"
          << "  quit\n";
      return true;
    }
    if (lower == "demo") {
      DropReplication();
      DropShards();
      LoadDemo();
      return true;
    }
    if (lower == "status") {
      if (cluster) {
        PrintShardStatus();
      } else {
        PrintStatus();
      }
      return true;
    }
    if (lower == "stats") {
      const policy::StoreStatsSnapshot snap = Store().StatsSnapshot();
      std::cout << "retrievals:          " << snap.retrievals << "\n"
                << "candidate rows:      " << snap.candidate_rows << "\n"
                << "interval rows:       " << snap.interval_rows << "\n"
                << "retrieval cache:     " << snap.cache_hits << " hit / "
                << snap.cache_misses << " miss / "
                << snap.cache_invalidations << " stale\n"
                << "rewrite cache:       " << snap.rewrite_cache_hits
                << " hit / " << snap.rewrite_cache_misses << " miss\n"
                << "compiled tables:     " << snap.compiled_builds
                << " built / " << snap.compiled_probes << " probes\n"
                << "epoch:               " << snap.epoch << "\n";
      if (router) {
        std::cout << "admission:           " << router->admission_shed()
                  << " shed / " << router->admission_rejected()
                  << " rejected, " << router->breaker_fast_failures()
                  << " breaker fast-fails\n";
        for (shard::ShardId s = 0; s < cluster->num_shards(); ++s) {
          std::cout << "shard " << s << ":             queue depth "
                    << router->queue_depth(s) << ", breaker "
                    << BreakerStateName(router->BreakerStateOf(s)) << "\n";
        }
      }
      return true;
    }
    if (lower == "shards") {
      std::string path;
      size_t n = 0;
      words >> path >> n;
      if (path.empty() && cluster) {
        PrintShardStatus();
        return true;
      }
      if (path.empty() || n == 0) {
        std::cout << "usage: shards <dir> <n>\n";
        return true;
      }
      shard::ShardClusterOptions options;
      options.num_shards = n;
      auto opened = shard::ShardCluster::Open(path, options);
      if (!opened.ok()) {
        std::cout << "shards failed: " << opened.status().ToString() << "\n";
        return true;
      }
      DropReplication();
      DropShards();
      durable.reset();
      cluster = std::move(*opened);
      shard_map = std::make_unique<shard::ShardMap>(n);
      // Interactive shell: no retry loop — a typed refusal surfaces
      // immediately with its repair hint instead of stalling the prompt.
      shard::ShardRouterOptions router_options;
      router_options.retry = RetryPolicy::None();
      router = std::make_unique<shard::ShardRouter>(
          cluster.get(), shard_map.get(), router_options);
      std::cout << "opened " << n << "-shard cluster at " << path
                << " (each shard a primary+standby pair)\n";
      PrintShardStatus();
      return true;
    }
    if (lower == "tenant") {
      std::string name;
      words >> name;
      if (name.empty()) {
        std::cout << "usage: tenant <name>\n";
        return true;
      }
      tenant = name;
      if (cluster) {
        std::cout << "tenant '" << tenant << "' -> shard "
                  << shard_map->Resolve(tenant) << "\n";
      } else {
        std::cout << "tenant '" << tenant
                  << "' (takes effect under 'shards <dir> <n>')\n";
      }
      return true;
    }
    if (lower == "kill") {
      shard::ShardId id = 0;
      if (!(words >> id) || !cluster || id >= cluster->num_shards()) {
        std::cout << (cluster ? "usage: kill <shard>\n"
                              : "no cluster open ('shards <dir> <n>')\n");
        return true;
      }
      (void)cluster->Drain(id);  // Promotion should not lose tail records.
      auto epoch = cluster->Failover(id, shard::ShardCluster::FailoverMode::kKillPrimary);
      if (!epoch.ok()) {
        std::cout << "kill failed: " << epoch.status().ToString() << "\n";
        return true;
      }
      std::cout << "shard " << id << ": primary killed, standby promoted at "
                << "epoch " << *epoch << "\n";
      Status st = cluster->AttachStandby(id);
      if (st.ok()) st = cluster->Drain(id);
      std::cout << (st.ok() ? "shard " + std::to_string(id) +
                                  ": fresh standby attached and caught up"
                            : st.ToString())
                << "\n";
      return true;
    }
    if (lower == "rebalance") {
      shard::ShardId id = 0;
      if (!(words >> id) || !cluster || id >= cluster->num_shards()) {
        std::cout << (cluster ? "usage: rebalance <shard>\n"
                              : "no cluster open ('shards <dir> <n>')\n");
        return true;
      }
      auto epoch = cluster->Rebalance(id);
      if (!epoch.ok()) {
        std::cout << "rebalance failed: " << epoch.status().ToString() << "\n";
        return true;
      }
      const shard::ShardStatus st = cluster->StatusOf(id);
      std::cout << "shard " << id << ": migrated onto " << st.primary_dir
                << " at epoch " << *epoch << " (" << st.rebalance_records
                << " records/chunks shipped so far)\n";
      Status attach = cluster->AttachStandby(id);
      if (attach.ok()) attach = cluster->Drain(id);
      std::cout << (attach.ok() ? "shard " + std::to_string(id) +
                                      ": fresh standby attached and caught up"
                                : attach.ToString())
                << "\n";
      return true;
    }
    if (lower == "replica") {
      std::string path;
      words >> path;
      if (path.empty()) {
        std::cout << "usage: replica <dir>\n";
        return true;
      }
      if (!durable) {
        std::cout << "no durable home open ('open <dir>' first) — only a "
                     "journaled store can ship its WAL\n";
        return true;
      }
      auto standby = store::DurableResourceManager::Open(path);
      if (!standby.ok()) {
        std::cout << "replica failed: " << standby.status().ToString() << "\n";
        return true;
      }
      auto attached = store::ReplicaApplier::Attach(standby->get());
      if (!attached.ok()) {
        std::cout << "replica failed: " << attached.status().ToString()
                  << "\n";
        return true;
      }
      DropReplication();
      replica = std::move(*standby);
      applier = std::move(*attached);
      link = std::make_unique<store::InProcessTransport>(applier.get());
      chaos_link = std::make_unique<store::FaultInjectingTransport>(
          link.get(), nullptr);
      // The primary must ship above every epoch the follower has lived
      // through, or a follower that was once promoted would fence us.
      shipper = std::make_unique<store::WalShipper>(
          durable.get(), chaos_link.get(), applier->epoch() + 1);
      Status st = shipper->Pump();
      if (!st.ok()) {
        std::cout << "replica attached, first pump failed: " << st.ToString()
                  << "\n";
        return true;
      }
      std::cout << "replicating " << durable->dir() << " -> " << path
                << " (epoch " << shipper->epoch() << ", follower at seq "
                << shipper->acked_seq() << ")\n";
      return true;
    }
    if (lower == "sync") {
      if (!shipper) {
        std::cout << "no replica attached ('replica <dir>' first)\n";
        return true;
      }
      Status st = shipper->Pump();
      if (!st.ok()) {
        std::cout << "sync failed: " << st.ToString() << "\n";
        return true;
      }
      std::cout << "follower at seq " << shipper->acked_seq() << " (lag "
                << shipper->lag_records() << ")\n";
      return true;
    }
    if (lower == "partition" && cluster) {
      shard::ShardId id = 0;
      std::string setting;
      if (!(words >> id >> setting) || id >= cluster->num_shards() ||
          (setting != "on" && setting != "off")) {
        std::cout << "usage: partition <shard> on|off\n";
        return true;
      }
      Status st = cluster->SetPartitioned(id, setting == "on");
      if (!st.ok()) {
        std::cout << st.ToString() << "\n";
      } else if (setting == "on") {
        std::cout << "shard " << id << ": link severed; shard degraded "
                  << "(mutations fail fast with a typed reason)\n";
      } else {
        std::cout << "shard " << id << ": link healed\n";
      }
      return true;
    }
    if (lower == "partition") {
      std::string setting;
      words >> setting;
      if (!chaos_link || (setting != "on" && setting != "off")) {
        std::cout << (chaos_link ? "usage: partition on|off\n"
                                 : "no replica attached\n");
        return true;
      }
      chaos_link->SetPartitioned(setting == "on");
      if (setting == "on") {
        // Surface the partition as an explicit degraded state so reads
        // keep serving while mutations fail fast with a typed status.
        durable->EnterDegraded("replication link partitioned");
        std::cout << "link severed; primary degraded (reads only)\n";
      } else {
        durable->ExitDegraded();
        std::cout << "link healed\n";
      }
      return true;
    }
    if (lower == "failover") {
      if (!applier) {
        std::cout << "no replica attached ('replica <dir>' first)\n";
        return true;
      }
      auto epoch = applier->Promote();
      if (!epoch.ok()) {
        std::cout << "failover failed: " << epoch.status().ToString() << "\n";
        return true;
      }
      // Show the fence working: the demoted primary's next ship is
      // rejected as stale.
      if (shipper) (void)shipper->Pump();
      const bool fenced = shipper && shipper->fenced();
      std::cout << "promoted " << replica->dir() << " at epoch " << *epoch
                << " (follower seq " << replica->last_seq() << ")"
                << (fenced ? "; old primary fenced" : "") << "\n";
      durable = std::move(replica);
      DropReplication();
      return true;
    }
    if (lower == "open") {
      std::string path;
      words >> path;
      if (path.empty()) {
        std::cout << "usage: open <dir>\n";
        return true;
      }
      if (durable && path == durable->dir()) {
        // Reopening the held home: release it (and the replication fed
        // from it) first, or the home lock refuses the second open.
        DropReplication();
        durable.reset();
      }
      auto opened = store::DurableResourceManager::Open(path);
      if (!opened.ok()) {
        std::cout << "open failed: " << opened.status().ToString() << "\n";
        return true;
      }
      DropReplication();
      DropShards();
      durable = std::move(*opened);
      const auto& info = durable->recovery_info();
      std::cout << "opened " << path << " (snapshot "
                << (info.snapshot_loaded ? "loaded" : "absent") << ", "
                << info.wal_records_replayed << " wal records replayed";
      if (info.wal_records_skipped > 0) {
        std::cout << ", " << info.wal_records_skipped << " skipped";
      }
      if (info.torn_tail) std::cout << ", torn tail truncated";
      if (info.migrated_legacy) std::cout << ", legacy snapshot migrated";
      if (info.tmp_files_reaped > 0) {
        std::cout << ", " << info.tmp_files_reaped << " orphaned tmp reaped";
      }
      std::cout << ")\n";
      return true;
    }
    if (lower == "save") {
      std::string path;
      words >> path;
      if (durable && (path.empty() || path == durable->dir())) {
        Status st = durable->Checkpoint();
        std::cout << (st.ok() ? "checkpointed " + durable->dir()
                              : st.ToString())
                  << "\n";
        return true;
      }
      if (path.empty()) {
        std::cout << "usage: save <dir>\n";
        return true;
      }
      Status st =
          store::DurableResourceManager::SaveWorld(path, Org(), Store(), Rm());
      std::cout << (st.ok() ? "saved durable home " + path : st.ToString())
                << "\n";
      return true;
    }
    if (lower == "load") {
      std::string path;
      words >> path;
      if (path.empty()) {
        std::cout << "usage: load <file>\n";
        return true;
      }
      std::ifstream in(path);
      if (!in) {
        std::cout << "cannot open " << path << "\n";
        return true;
      }
      std::string content((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
      size_t split = content.find("-- POLICIES --");
      std::string rdl_part = content.substr(0, split);
      std::string pl_part =
          split == std::string::npos ? "" : content.substr(split + 14);
      auto fresh_org = std::make_unique<wfrm::org::OrgModel>();
      Status st = wfrm::org::ExecuteRdl(rdl_part, fresh_org.get());
      if (!st.ok()) {
        std::cout << "load failed: " << st.ToString() << "\n";
        return true;
      }
      auto fresh_store =
          std::make_unique<wfrm::policy::PolicyStore>(fresh_org.get());
      if (!pl_part.empty()) {
        st = fresh_store->AddPolicyText(pl_part);
        if (!st.ok()) {
          std::cout << "load failed: " << st.ToString() << "\n";
          return true;
        }
      }
      DropReplication();
      DropShards();
      durable.reset();
      org = std::move(fresh_org);
      store = std::move(fresh_store);
      rm = std::make_unique<wfrm::core::ResourceManager>(org.get(),
                                                         store.get());
      std::cout << "loaded " << path << "\n";
      return true;
    }
    if (lower == "why") {
      std::string rql = line.substr(line.find(verb) + verb.size());
      auto query = rql::ParseAndBindRql(rql, Org());
      if (!query.ok()) {
        std::cout << "error: " << query.status().ToString() << "\n";
        return true;
      }
      auto quals =
          Store().QualifiedSubtypes(query->resource(), query->activity());
      if (quals.ok()) {
        std::cout << "qualification (CWA): ";
        if (quals->empty()) {
          std::cout << "NO sub-type of " << query->resource()
                    << " is qualified for " << query->activity() << "\n";
        } else {
          for (const auto& t : *quals) std::cout << t << " ";
          std::cout << "\n";
        }
      }
      auto diags = Store().DiagnoseRequirements(
          query->resource(), query->activity(), query->spec.AsParams());
      if (!diags.ok()) {
        std::cout << "error: " << diags.status().ToString() << "\n";
        return true;
      }
      using V = wfrm::policy::PolicyStore::RequirementDiagnosis::Verdict;
      for (const auto& d : *diags) {
        const char* verdict = d.verdict == V::kApplied ? "APPLIED "
                              : d.verdict == V::kResourceMismatch
                                  ? "resource"
                              : d.verdict == V::kActivityMismatch
                                  ? "activity"
                                  : "range   ";
        std::cout << "  [" << verdict << "] group " << d.group << " ("
                  << d.resource << " / " << d.activity << "): " << d.detail
                  << "\n";
      }
      return true;
    }
    if (lower == "analyze") {
      std::string file;
      words >> file;
      if (file.empty()) {
        wfrm::policy::PolicyAnalyzer analyzer(&Store());
        auto report = analyzer.Report();
        std::cout << (report.ok() ? *report : report.status().ToString())
                  << "\n";
        return true;
      }
      std::ifstream in(file);
      if (!in) {
        std::cout << "error: cannot open '" << file << "'\n";
        return true;
      }
      std::stringstream script;
      script << in.rdbuf();
      analysis::AnalysisOptions options;
      std::string flag;
      while (words >> flag) {
        if (AsciiToLower(flag) == "valued") {
          options.valued = true;
          continue;
        }
        char* end = nullptr;
        unsigned long k = std::strtoul(flag.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          std::cout << "usage: analyze <file> [k] [valued]\n";
          return true;
        }
        options.resiliency_k = static_cast<size_t>(k);
      }
      auto spec = analysis::ParseWorkflowSpec(script.str());
      if (!spec.ok()) {
        std::cout << "error: " << spec.status().ToString() << "\n";
        return true;
      }
      analysis::WorkflowAnalyzer analyzer(&Rm(), options);
      auto report = analyzer.Analyze(*spec);
      std::cout << (report.ok() ? report->ToString()
                                : "error: " + report.status().ToString())
                << "\n";
      return true;
    }
    if (lower == "policies") {
      ListPolicies();
      return true;
    }
    if (lower == "allocate" || lower == "release") {
      std::string type, id;
      words >> type >> id;
      if (type.empty() || id.empty()) {
        std::cout << "usage: " << lower << " <type> <id>\n";
        return true;
      }
      org::ResourceRef ref{type, id};
      Status st;
      store::DurableResourceManager* home =
          cluster ? TenantHome() : durable.get();
      if (home != nullptr) {
        st = lower == "allocate" ? home->AllocateLease(ref).status()
                                 : home->Release(ref);
      } else if (cluster) {
        st = Status::ResourceUnavailable("tenant's home shard is offline");
      } else {
        st = lower == "allocate" ? rm->Allocate(ref) : rm->Release(ref);
      }
      ReportMutation(st);
      return true;
    }
    if (lower == "explain") {
      Explain(line.substr(line.find(verb) + verb.size()));
      return true;
    }
    if (lower == "define" || lower == "insert") {
      Status st = cluster   ? router->ExecuteRdl(tenant, line)
                  : durable ? durable->ExecuteRdl(line)
                            : org::ExecuteRdl(line, org.get());
      ReportMutation(st);
      return true;
    }
    if (lower == "qualify" || lower == "require" || lower == "substitute") {
      Status st = cluster   ? router->AddPolicyText(tenant, line)
                  : durable ? durable->AddPolicyText(line)
                            : store->AddPolicyText(line);
      ReportMutation(st);
      return true;
    }
    if (lower == "select") {
      Submit(line);
      return true;
    }
    std::cout << "unknown command '" << verb << "' (try: help)\n";
    return true;
  }
};

}  // namespace

int main() {
  Shell shell;
  std::cout << "wfrm shell — type 'help' for commands, 'demo' to load the "
               "paper's example.\n";
  std::string line;
  // Statements may span lines; a line ending in '\' continues.
  while (true) {
    std::cout << "wfrm> " << std::flush;
    std::string statement;
    while (true) {
      if (!std::getline(std::cin, line)) return 0;
      if (!line.empty() && line.back() == '\\') {
        statement += line.substr(0, line.size() - 1) + " ";
        continue;
      }
      statement += line;
      break;
    }
    if (!shell.Dispatch(statement)) return 0;
    shell.PumpReplication();
  }
}
