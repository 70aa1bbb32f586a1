#include "src/servers/ip_server.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "src/net/pbuf.h"

namespace newtos::servers {

IpServer::IpServer(NodeEnv* env, sim::SimCore* core, Config cfg)
    : Server(env, kIpName, core), cfg_(std::move(cfg)) {}

int IpServer::ifindex_of(const std::string& driver) {
  return std::atoi(driver.c_str() + 3);  // "drvN"
}

void IpServer::send_l4(std::uint8_t protocol,
                       std::span<const net::L4Packet> segs) {
  sim::Context& ctx = cur();
  // The steering point of the sharded TCP plane: one flow always hashes to
  // the same replica, so replicas never share connections (and an
  // aggregate, one flow by construction, never spans two).  UDP has one
  // server.
  const char proto = protocol == net::kProtoUdp ? 'U' : 'T';
  const int shard = proto == 'U' ? 0 : steer(segs.front(), cfg_.tcp_shards);
  const std::string target = transport_shard_name(proto, shard);
  if (segs.size() > 1) charge(ctx, 150);  // descriptor packing, as on TX
  std::vector<WireRxFrame> recs(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    recs[i].frame = segs[i].frame;
    recs[i].l4_offset = segs[i].l4_offset;
    recs[i].l4_length = segs[i].l4_length;
  }
  chan::Message m;
  m.opcode = kL4Rx;
  m.arg1 = pack_addrs(segs.front().src, segs.front().dst);
  send_records<WireRxFrame>(
      hdr_pool_, m, recs,
      [&](const chan::Message& msg) {
        if (!send_to(target, msg, ctx)) return false;
        ++l4_msgs_;
        if ((msg.flags & kMsgPacked) == 0) {
          ++l4_frames_;
          return true;
        }
        l4_frames_ += recs.size();
        // The frame references of a packed message are now on loan to the
        // replica: if it dies with the message still queued, reclaim() on
        // its restart recovers them (the replica note_returns each frame
        // as it unpacks).
        for (const auto& rec : recs) {
          rx_pool_->note_borrow(rec.frame, transport_borrower(proto, shard));
        }
        return true;
      },
      [&](std::size_t i) { engine_->rx_done(recs[i].frame); });
}

int IpServer::steer(const net::L4Packet& pkt, int shards) {
  if (shards <= 1) return 0;
  // Both TCP and UDP start with source and destination port, big-endian.
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  auto bytes = env().pools->read(pkt.frame);
  if (bytes.size() >= static_cast<std::size_t>(pkt.l4_offset) + 4) {
    net::ByteReader r{bytes.subspan(pkt.l4_offset, 4)};
    sport = r.u16();
    dport = r.u16();
  }
  return net::steer_shard(pkt.src, pkt.dst, sport, dport, shards);
}

void IpServer::build_engine() {
  net::IpEngine::Env e;
  e.clock = clock();
  e.timers = timers();
  e.pools = env().pools;
  e.hdr_pool = hdr_pool_;
  e.rx_pool = rx_pool_;
  e.csum_offload = cfg_.csum_offload;
  e.send_frame = [this](int ifindex, net::TxFrame&& frame,
                        std::uint64_t cookie) {
    sim::Context& ctx = cur();
    charge(ctx, 150);  // descriptor packing
    chan::RichPtr desc =
        net::pack_chain(*hdr_pool_, frame.header, frame.payload,
                        frame.offload);
    if (!desc.valid()) return;  // pool exhausted: RTO recovers
    auto old = drv_descs_.find(cookie);
    if (old != drv_descs_.end()) {  // resubmission: replace the descriptor
      hdr_pool_->release(old->second);
      drv_descs_.erase(old);
    }
    chan::Message m;
    m.opcode = kDrvTx;
    m.req_id = cookie;
    m.ptr = desc;
    if (!send_to(driver_name(ifindex), m, ctx)) {
      hdr_pool_->release(desc);  // driver down/full: dropped, RTO recovers
      return;
    }
    drv_descs_.emplace(cookie, desc);
  };
  if (cfg_.use_pf) {
    e.pf_check =
        [this](std::span<const std::pair<net::PfQuery, std::uint64_t>> qs) {
          std::vector<WirePfQuery> recs;
          recs.reserve(qs.size());
          for (const auto& [q, cookie] : qs) recs.push_back({cookie, q});
          chan::Message m;
          m.opcode = kPfCheck;
          // If PF is down the queries are repeated on its restart
          // (resubmit_pf_pending); nothing is ever lost here (Section V-D).
          send_records<WirePfQuery>(
              hdr_pool_, m, recs,
              [this](const chan::Message& msg) {
                return send_to(kPfName, msg, cur());
              },
              [](std::size_t) {});
        };
  }
  e.deliver = [this](std::uint8_t protocol,
                     std::span<const net::L4Packet> segs) {
    send_l4(protocol, segs);
  };
  e.seg_done = [this](std::uint64_t l4_cookie, bool sent) {
    l4_done(l4_cookie, sent);
  };
  engine_ = std::make_unique<net::IpEngine>(std::move(e), cfg_.ip);
}

std::size_t IpServer::l4_sender(const std::string& name) {
  for (std::size_t i = 0; i < l4_senders_.size(); ++i) {
    if (l4_senders_[i].name == name) return i;
  }
  assert(l4_senders_.size() < (1u << kL4SenderBits));
  l4_senders_.push_back(L4Sender{name, {}, 1});
  return l4_senders_.size() - 1;
}

void IpServer::l4_done(std::uint64_t l4_cookie, bool sent) {
  const std::size_t slot = l4_cookie & ((1u << kL4SenderBits) - 1);
  if (slot >= l4_senders_.size()) return;
  L4Sender& s = l4_senders_[slot];
  std::uint64_t cookie = 0;
  // Absent: the sender died since (on_peer_down dropped its requests).
  if (!s.reqs.take(l4_cookie >> kL4SenderBits, cookie)) return;
  chan::Message m;
  m.opcode = kIpTxDone;
  m.req_id = cookie;
  m.arg0 = sent ? 1 : 0;
  // The cumulative mark: every cookie of this sender below it is complete
  // here and its report went out, even if that report was then lost.
  m.arg1 = s.reqs.empty() ? cookie + 1 : std::min(s.reqs.front(), cookie + 1);
  send_to(s.name, m, cur());
}

void IpServer::start(bool restart) {
  hdr_pool_ = env().get_pool("ip.hdr", 16u << 20);
  rx_pool_ = env().get_pool("ip.rx", 32u << 20);

  std::vector<std::string> peers;
  for (int s = 0; s < std::max(1, cfg_.tcp_shards); ++s)
    peers.push_back(tcp_shard_name(s));
  peers.push_back(kUdpName);
  peers.push_back(kStoreName);
  if (cfg_.use_pf) peers.push_back(kPfName);
  for (int ifindex : cfg_.ifindexes) peers.push_back(driver_name(ifindex));
  // The reincarnation server's work probes (answered by the Server base).
  if (env().knobs.supervision) peers.push_back(kRsName);
  for (const auto& p : peers) {
    expose_in_queue(p, 1024);
    connect_out(p);
  }

  build_engine();

  if (restart) {
    // Recover the routing/interface configuration from the storage server
    // before announcing (Table I: small static state, easy to restore).
    post_control([this](sim::Context& ctx) {
      chan::Message m;
      m.opcode = kStoreGet;
      m.arg0 = kKeyIpConfig;
      store_get_req_ = request_db().add(kStoreName, 0, {});
      m.req_id = store_get_req_;
      if (!send_to(kStoreName, m, ctx)) {
        announce(true);  // no storage: come up with compiled-in config
      }
    });
  } else {
    post_control([this](sim::Context& ctx) {
      store_put(hdr_pool_, kKeyIpConfig, engine_->config().serialize(), ctx);
      announce(false);
    });
  }
}

void IpServer::on_killed() {
  engine_.reset();
  l4_senders_.clear();
  drv_descs_.clear();  // in-flight descriptor chunks leak, bounded per crash
  posted_.clear();
}

void IpServer::post_rx_buffers(int ifindex, sim::Context& ctx) {
  int& posted = posted_[ifindex];
  const int target = cfg_.rx_buffers_per_nic * std::max(1, cfg_.rx_queues);
  while (posted < target) {
    chan::RichPtr buf = rx_pool_->alloc(cfg_.rx_buf_size);
    if (!buf.valid()) return;
    chan::Message m;
    m.opcode = kDrvRxBuf;
    m.ptr = buf;
    if (!send_to(driver_name(ifindex), m, ctx)) {
      rx_pool_->release(buf);
      return;
    }
    ++posted;
  }
}

void IpServer::on_message(const std::string& from, const chan::Message& m,
                          sim::Context& ctx) {
  const auto& costs = sim().costs();
  switch (m.opcode) {
    case kIpTx: {
      charge(ctx, costs.ip_packet_proc);
      auto chain = net::unpack_chain(*env().pools, m.ptr);
      if (!chain) {  // malformed request: reply failure (validate & ignore)
        chan::Message done;
        done.opcode = kIpTxDone;
        done.req_id = m.req_id;
        done.arg0 = 0;
        send_to(from, done, ctx);
        return;
      }
      net::TxSeg seg;
      seg.l4_header = chain->header;
      seg.payload = std::move(chain->payload);
      seg.offload = chain->offload;
      seg.offload.tso = seg.offload.tso && env().knobs.tso;
      seg.src = unpack_hi(m.arg0);
      seg.dst = unpack_lo(m.arg0);
      seg.protocol = static_cast<std::uint8_t>(m.arg1);
      if (!cfg_.csum_offload) {
        charge(ctx, costs.checksum_cost(seg.total_len()));
      }
      const std::size_t slot = l4_sender(from);
      L4Sender& sender = l4_senders_[slot];
      const std::uint64_t seq = sender.next_seq++;
      sender.reqs.put(seq, m.req_id);
      engine_->output(std::move(seg), (seq << kL4SenderBits) | slot);
      return;
    }
    case kPfVerdict:
      for (const auto& v : decode_records<WirePfVerdict>(*env().pools, m)) {
        charge(ctx, 120);
        engine_->pf_verdict(v.cookie, v.allow != 0);
      }
      return;
    case kDrvTxDone: {
      charge(ctx, 150);
      auto it = drv_descs_.find(m.req_id);
      if (it != drv_descs_.end()) {
        hdr_pool_->release(it->second);
        drv_descs_.erase(it);
      }
      engine_->tx_done(m.req_id, m.arg0 != 0);
      return;
    }
    case kDrvRx: {
      // The frames of one driver interrupt — or a frame a transport's fast
      // path handed back, whose buffer credit the driver already granted.
      // One dequeue per message; the per-frame protocol work is still
      // charged per frame.
      const bool from_driver = from.rfind("drv", 0) == 0;
      const int ifindex = static_cast<int>(m.arg1);
      auto it = from_driver ? posted_.find(ifindex) : posted_.end();
      std::vector<chan::RichPtr> frames;
      for (const auto& rec : decode_records<WireRxFrame>(*env().pools, m)) {
        charge(ctx, costs.ip_packet_proc);
        if (!cfg_.csum_offload) {
          charge(ctx, costs.checksum_cost(rec.frame.length));
        }
        if (it != posted_.end() && it->second > 0) --it->second;
        frames.push_back(rec.frame);
      }
      if (cfg_.gro) {
        engine_->input_burst(ifindex, frames);
      } else {
        for (const auto& f : frames) engine_->input(ifindex, f);
      }
      if (from_driver) post_rx_buffers(ifindex, ctx);  // keep the device fed
      return;
    }
    case kDrvRxCredit: {
      // The driver fed this many RX buffers to fast-path frames we never
      // saw: repost so the rings stay level.  No protocol work was done
      // here — the shard paid it on its own core.
      charge(ctx, 80);
      const int ifindex = ifindex_of(from);
      auto it = posted_.find(ifindex);
      if (it != posted_.end()) {
        it->second -= std::min<int>(it->second, static_cast<int>(m.arg0));
      }
      post_rx_buffers(ifindex, ctx);
      return;
    }
    case kDrvLink:
      if (m.arg0 != 0) {
        posted_[ifindex_of(from)] = 0;  // device was reset: rings are empty
        post_rx_buffers(ifindex_of(from), ctx);
        // Tell every transport replica the path healed so they retransmit
        // promptly.
        chan::Message up;
        up.opcode = kDrvLink;
        up.arg0 = 1;
        for (int s = 0; s < std::max(1, cfg_.tcp_shards); ++s)
          send_to(tcp_shard_name(s), up, ctx);
        send_to(kUdpName, up, ctx);
      }
      return;
    case kL4RxDone:
      charge(ctx, 80);
      engine_->rx_done(m.ptr);
      return;
    case kStoreReply: {
      if (!request_db().complete(m.req_id)) return;
      if (m.arg0 != 0) {
        auto bytes = env().pools->read(m.ptr);
        auto cfg = net::IpConfig::parse(bytes);
        if (cfg) engine_->set_config(std::move(*cfg));
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(kStoreName, rel, ctx);
      }
      announce(true);
      return;
    }
    default:
      return;
  }
}

void IpServer::on_peer_up(const std::string& peer, bool restarted,
                          sim::Context& ctx) {
  if (peer.rfind("drv", 0) == 0) {
    const int ifindex = ifindex_of(peer);
    if (restarted) {
      // The device was reset: everything in its rings is gone.  Prefer
      // duplicates over losses (Section V-D): resubmit pending frames.
      posted_[ifindex] = 0;
      if (engine_) engine_->resubmit_tx(ifindex);
    }
    post_rx_buffers(ifindex, ctx);
    return;
  }
  if (peer == kPfName && restarted && engine_) {
    // PF lost our unanswered queries; repeat them — no packet loss across a
    // PF restart (Section V-D, Figure 5).
    engine_->resubmit_pf_pending();
    return;
  }
  if (peer == kStoreName && restarted && engine_) {
    // Storage came back empty: every server must store its state again.
    store_put(hdr_pool_, kKeyIpConfig, engine_->config().serialize(), ctx);
    return;
  }
}

void IpServer::on_peer_down(const std::string& peer, sim::Context& ctx) {
  (void)ctx;
  // The transport died: its successor numbers its cookies from 1 again, so
  // a report (and its mark) for the dead incarnation's requests could free
  // the successor's live headers.  Forget them; the engine's completions
  // for them then find nothing to report.  Sequence numbers keep rising.
  for (auto& s : l4_senders_) {
    if (s.name == peer) s.reqs.clear();
  }
  for (int s = 0; s < std::max(1, cfg_.tcp_shards); ++s) {
    if (peer != tcp_shard_name(s)) continue;
    if (rx_pool_ != nullptr) {
      // The replica died and its queues were reset: frames an in-flight
      // packed kL4Rx or a driver's kDrvRx still referenced would strand
      // without this.  Frames the replica had already unpacked were
      // note_returned (and its rcvq was drained by its own teardown path),
      // so only the dead messages' loans are on the ledger.  This runs before the
      // restarted incarnation can receive anything, so no live loan is
      // touched.
      rx_pool_->reclaim(transport_borrower('T', s));
    }
    return;
  }
  if (peer == kUdpName && rx_pool_ != nullptr) {
    // UDP borrows frames too once the RSS fast path posts kDrvRx straight
    // to it; same reclaim discipline.
    rx_pool_->reclaim(transport_borrower('U', 0));
  }
}

}  // namespace newtos::servers
