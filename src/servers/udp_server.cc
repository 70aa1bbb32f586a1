#include "src/servers/udp_server.h"

#include <cstring>
#include <utility>

#include "src/net/pbuf.h"

namespace newtos::servers {

UdpServer::UdpServer(NodeEnv* env, sim::SimCore* core,
                     std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for)
    : TransportServer(env, core, 'U', 0), src_for_(std::move(src_for)) {}

UdpServer::~UdpServer() {
  drop_engine(engine_);
  release_in_flight(pool_, pending_tx_,
                    [](const PendingTx& p) -> const chan::RichPtr& {
                      return p.desc;
                    });
}

void UdpServer::build_engine() {
  net::UdpEngine::Env e;
  e.clock = clock();
  e.pools = env().pools;
  e.buf_pool = pool_;
  e.src_for = src_for_;
  e.output = [this](net::TxSeg&& seg, std::uint64_t cookie) {
    sim::Context& ctx = cur();
    charge(ctx, 150);  // descriptor packing
    chan::RichPtr desc =
        net::pack_chain(*pool_, seg.l4_header, seg.payload, seg.offload);
    if (!desc.valid()) {
      engine_->seg_done(cookie, false);
      return;
    }
    chan::Message m;
    m.opcode = kIpTx;
    m.req_id = cookie;
    m.ptr = desc;
    m.arg0 = pack_addrs(seg.src, seg.dst);
    m.arg1 = seg.protocol;
    if (!send_to(kIpName, m, ctx)) {
      pool_->release(desc);
      engine_->seg_done(cookie, false);  // IP down: datagram dropped
      return;
    }
    pending_tx_.put(cookie, PendingTx{desc, m.arg0});
  };
  e.rx_done = [this](const chan::RichPtr& frame) {
    chan::Message m;
    m.opcode = kL4RxDone;
    m.ptr = frame;
    send_to(kIpName, m, cur());
  };
  e.notify_readable = [this](net::SockId s) {
    if (env().sock_event) env().sock_event(shard_, 'U', s, 0);
  };
  engine_ = std::make_unique<net::UdpEngine>(std::move(e));
}

void UdpServer::deliver_l4(std::span<const net::L4Packet> segs) {
  for (const auto& pkt : segs) {
    if (in_handler()) charge(cur(), sim().costs().udp_packet_proc);
    engine_->input(net::L4Packet{pkt});
  }
}

void UdpServer::start(bool restart) {
  pool_ = env().get_pool(name() + ".buf", 8u << 20);
  for (const char* p : {kIpName, kStoreName, kPfName, kSyscallName}) {
    expose_in_queue(p);
    connect_out(p);
  }
  if (env().knobs.supervision) {
    expose_in_queue(kRsName, 64);
    connect_out(kRsName);
  }
  start_rx_fastpath();
  build_engine();
  if (restart) {
    post_control([this](sim::Context& ctx) {
      chan::Message m;
      m.opcode = kStoreGet;
      m.arg0 = kKeyUdpSockets;
      m.req_id = request_db().add(kStoreName, 0, {});
      if (!send_to(kStoreName, m, ctx)) announce(true);
    });
  } else {
    post_control([this](sim::Context&) { announce(false); });
  }
}

void UdpServer::on_killed() {
  // The dying process cannot send done-reports; queued receive frames go
  // straight back to their owning pool.  In-flight descriptors leak,
  // bounded per crash.
  stop_rx_fastpath();
  drop_engine(engine_);
  pending_tx_.clear();
}

void UdpServer::save_sockets(sim::Context& ctx) {
  store_put(pool_, kKeyUdpSockets,
            net::UdpEngine::serialize_socks(engine_->snapshot()), ctx);
}

void UdpServer::handle_sock_request(
    const chan::Message& m, sim::Context& ctx,
    const std::function<void(const chan::Message&)>& reply) {
  charge(ctx, sim().costs().socket_op);
  chan::Message r;
  r.opcode = kSockReply;
  r.req_id = m.req_id;
  r.socket = m.socket;
  bool state_changed = false;
  switch (m.opcode) {
    case kSockOpen:
      r.arg0 = engine_->open();
      r.socket = static_cast<std::uint32_t>(r.arg0);
      state_changed = true;
      break;
    case kSockBind:
      r.arg0 = engine_->bind(m.socket, net::Ipv4Addr{
                                           static_cast<std::uint32_t>(m.arg0)},
                             static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      state_changed = true;
      break;
    case kSockConnect:
      r.arg0 = engine_->connect(
                   m.socket,
                   net::Ipv4Addr{static_cast<std::uint32_t>(m.arg0)},
                   static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      state_changed = true;
      break;
    case kSockSendTo: {
      charge(ctx, sim().costs().udp_packet_proc);
      // sendto on an unbound socket auto-binds an ephemeral port — a state
      // change storage must learn about, or a restart loses the port the
      // replies are addressed to.
      const auto before = engine_->record(m.socket);
      r.arg0 = engine_->sendto(
                   m.socket, m.ptr,
                   net::Ipv4Addr{static_cast<std::uint32_t>(m.arg0)},
                   static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      if (before && before->lport == 0) state_changed = true;
      break;
    }
    case kSockClose:
      engine_->close(m.socket);
      r.arg0 = 1;
      state_changed = true;
      break;
    default:
      r.arg0 = 0;
      break;
  }
  reply(r);
  if (state_changed) save_sockets(ctx);
}

void UdpServer::on_message(const std::string& from, const chan::Message& m,
                           sim::Context& ctx) {
  if (on_rx_message(m, ctx)) return;
  switch (m.opcode) {
    case kIpTxDone: {
      PendingTx p;
      if (pending_tx_.take(m.req_id, p)) pool_->release(p.desc);
      // Below the mark IP is done with everything, including datagrams
      // whose own report was lost on a full queue.
      pending_tx_.take_below(m.arg1, [this](std::uint64_t, PendingTx&& d) {
        pool_->release(d.desc);
      });
      engine_->seg_done(m.req_id, m.arg0 != 0, m.arg1);
      return;
    }
    case kConnList: {
      // PF is rebuilding its connection table (Section V-D).
      const auto keys = engine_->connection_keys();
      const std::uint32_t bytes =
          static_cast<std::uint32_t>(4 + keys.size() * sizeof(net::PfStateKey));
      chan::RichPtr chunk = pool_->alloc(bytes);
      chan::Message r;
      r.opcode = kConnListReply;
      r.req_id = m.req_id;
      if (chunk.valid()) {
        auto view = pool_->write_view(chunk);
        std::uint32_t n = static_cast<std::uint32_t>(keys.size());
        std::memcpy(view.data(), &n, 4);
        if (n > 0) {
          std::memcpy(view.data() + 4, keys.data(),
                      keys.size() * sizeof(net::PfStateKey));
        }
        r.ptr = chunk;
      }
      send_to(from, r, ctx);
      return;
    }
    case kStoreRelease:
      pool_->release(m.ptr);
      return;
    case kStoreReply: {
      if (!request_db().complete(m.req_id)) return;
      if (m.arg0 != 0) {
        auto socks = net::UdpEngine::parse_socks(env().pools->read(m.ptr));
        if (socks) engine_->restore(*socks);
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(kStoreName, rel, ctx);
      }
      announce(true);
      return;
    }
    case kSockBatch: {
      // A packed submission-queue flush.
      const auto ops = parse_sock_batch(env().pools->read(m.ptr));
      run_sock_batch(ops, [&, this](char, const chan::Message& sm,
                                    const auto& note_open) {
        handle_sock_request(sm, ctx, [&, this](const chan::Message& r) {
          note_open(r);
          send_to(from, r, ctx);
        });
      });
      return;
    }
    default:
      // Socket control over channels (SYSCALL server path).
      if (m.opcode >= kSockOpen && m.opcode <= kSockClose) {
        handle_sock_request(m, ctx, [this, from, &ctx](const chan::Message& r) {
          send_to(from, r, ctx);
        });
      }
      return;
  }
}

void UdpServer::on_peer_up(const std::string& peer, bool restarted,
                           sim::Context& ctx) {
  if (peer == kIpName && restarted) {
    // Resubmit in-flight datagrams, oldest first: we prefer duplicates
    // over losses (Section V-D "UDP").  Each goes under a fresh cookie:
    // the new IP may already hold newer datagrams of ours, and its done
    // marks are sound only while the cookies it sees rise.
    auto resubmit = std::exchange(pending_tx_, {});
    resubmit.drain([&](std::uint64_t cookie, PendingTx&& pending) {
      chan::Message m;
      m.opcode = kIpTx;
      m.req_id = engine_->renumber(cookie);
      m.ptr = pending.desc;
      m.arg0 = pending.arg0;
      m.arg1 = net::kProtoUdp;
      if (!send_to(kIpName, m, ctx)) {
        pool_->release(pending.desc);
        engine_->seg_done(m.req_id, false);  // datagram dropped
        return;
      }
      pending_tx_.put(m.req_id, pending);
    });
    return;
  }
  if (peer == kStoreName && restarted) {
    save_sockets(ctx);
    return;
  }
  on_pf_up(peer);
}

}  // namespace newtos::servers
