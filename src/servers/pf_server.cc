#include "src/servers/pf_server.h"

#include <cstring>

namespace newtos::servers {

PfServer::PfServer(NodeEnv* env, sim::SimCore* core,
                   std::vector<net::PfRule> rules,
                   std::vector<std::string> transports)
    : Server(env, kPfName, core),
      initial_rules_(std::move(rules)),
      transports_(std::move(transports)) {}

void PfServer::start(bool restart) {
  pool_ = env().get_pool("pf.buf", 2u << 20);
  std::vector<std::string> peers = {kIpName, kStoreName};
  peers.insert(peers.end(), transports_.begin(), transports_.end());
  // The reincarnation server's work probes (answered by the Server base).
  if (env().knobs.supervision) peers.push_back(kRsName);
  for (const auto& p : peers) {
    expose_in_queue(p, 1024);
    connect_out(p);
  }
  engine_ = std::make_unique<net::PfEngine>(clock());
  if (restart) {
    post_control([this](sim::Context& ctx) {
      chan::Message m;
      m.opcode = kStoreGet;
      m.arg0 = kKeyPfRules;
      m.req_id = request_db().add(kStoreName, 0, {});
      if (!send_to(kStoreName, m, ctx)) {
        engine_->set_rules(initial_rules_);
        announce(true);
      }
    });
  } else {
    engine_->set_rules(initial_rules_);
    post_control([this](sim::Context& ctx) {
      save_rules(ctx);
      announce(false);
    });
  }
}

void PfServer::on_killed() { engine_.reset(); }

void PfServer::broadcast_cache_inval(sim::Context& ctx) {
  chan::Message m;
  m.opcode = kPfCacheInval;
  for (const auto& peer : transports_) send_to(peer, m, ctx);
}

void PfServer::apply_rules(std::vector<net::PfRule> rules) {
  post_control([this, rules = std::move(rules)](sim::Context& ctx) mutable {
    if (engine_ == nullptr) return;
    engine_->set_rules(std::move(rules));
    save_rules(ctx);
    // Shard-local verdict caches are judging with the old rules until this
    // lands; the broadcast must go out before any further verdict is
    // cached against the new set.
    broadcast_cache_inval(ctx);
  });
}

void PfServer::save_rules(sim::Context& ctx) {
  store_put(pool_, kKeyPfRules,
            net::PfEngine::serialize_rules(engine_->rules()), ctx);
}

void PfServer::request_conn_lists(sim::Context& ctx) {
  // Rebuild the connection table from every transport replica
  // (Section V-D); each shard answers with its own flows and the replies
  // merge in the engine.
  for (const auto& peer : transports_) {
    chan::Message m;
    m.opcode = kConnList;
    m.req_id = request_db().add(peer, 0, {});
    send_to(peer, m, ctx);
  }
}

void PfServer::on_message(const std::string& from, const chan::Message& m,
                          sim::Context& ctx) {
  switch (m.opcode) {
    case kPfCheck: {
      // One query, or every query of one RX burst: the rule/state walk is
      // charged per query, the IPC is paid once per message on both legs.
      const auto queries = decode_records<WirePfQuery>(*env().pools, m);
      std::vector<WirePfVerdict> verdicts;
      verdicts.reserve(queries.size());
      for (const auto& rec : queries) {
        const auto verdict = engine_->check(rec.query);
        charge(ctx, sim().costs().pf_packet_proc +
                        verdict.rules_walked * sim().costs().pf_rule_cost);
        verdicts.push_back(WirePfVerdict{
            rec.cookie, verdict.action == net::PfAction::Pass ? 1u : 0u, 0});
      }
      // The verdicts go back to whoever asked: IP, or a transport shard
      // running the RSS fast path.
      chan::Message r;
      r.opcode = kPfVerdict;
      send_records<WirePfVerdict>(
          pool_, r, verdicts,
          [&](const chan::Message& msg) { return send_to(from, msg, ctx); },
          [](std::size_t) {});
      return;
    }
    case kConnListReply: {
      request_db().complete(m.req_id);
      if (m.ptr.valid()) {
        auto bytes = env().pools->read(m.ptr);
        if (bytes.size() >= 4) {
          std::uint32_t n;
          std::memcpy(&n, bytes.data(), 4);
          if (bytes.size() >= 4 + n * sizeof(net::PfStateKey)) {
            std::vector<net::PfStateKey> keys(n);
            if (n > 0)
              std::memcpy(keys.data(), bytes.data() + 4,
                          n * sizeof(net::PfStateKey));
            engine_->restore_states(keys);
          }
        }
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(from, rel, ctx);
      }
      return;
    }
    case kStoreReply: {
      if (!request_db().complete(m.req_id)) return;
      bool restored = false;
      if (m.arg0 != 0) {
        auto rules = net::PfEngine::parse_rules(env().pools->read(m.ptr));
        if (rules) {
          engine_->set_rules(std::move(*rules));
          restored = true;
        }
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(kStoreName, rel, ctx);
      }
      if (!restored) engine_->set_rules(initial_rules_);
      announce(true);
      request_conn_lists(ctx);
      // A restarted PF cannot vouch for verdicts cached against the dead
      // incarnation's rules.
      broadcast_cache_inval(ctx);
      return;
    }
    default:
      return;
  }
}

void PfServer::on_peer_up(const std::string& peer, bool restarted,
                          sim::Context& ctx) {
  if (peer == kStoreName && restarted) save_rules(ctx);
}

}  // namespace newtos::servers
