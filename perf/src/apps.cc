#include "apps.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/core/node.h"

namespace perf {

using newtos::TcpListener;
using newtos::TcpSocket;
using newtos::net::TcpEvent;

namespace {

// Wire format.  Request: {u64 id, u32 total bytes, u32 response bytes} and
// a body; response: {u64 id, u32 total bytes, u32 zero} and a body.  Body
// bytes come from pattern_fill, keyed by the id.
constexpr std::size_t kHeader = 16;
constexpr std::uint32_t kMaxMessage = 1u << 20;

std::uint64_t request_key(std::uint64_t id) { return 2 * id; }
std::uint64_t response_key(std::uint64_t id) { return 2 * id + 1; }

struct Header {
  std::uint64_t id = 0;
  std::uint32_t bytes = 0;
  std::uint32_t arg = 0;
};

Header read_header(std::span<const std::byte> in) {
  Header h;
  std::memcpy(&h.id, in.data(), 8);
  std::memcpy(&h.bytes, in.data() + 8, 4);
  std::memcpy(&h.arg, in.data() + 12, 4);
  return h;
}

void write_message(std::span<std::byte> out, const Header& h,
                   std::uint64_t key) {
  std::memcpy(out.data(), &h.id, 8);
  std::memcpy(out.data() + 8, &h.bytes, 4);
  std::memcpy(out.data() + 12, &h.arg, 4);
  pattern_fill(out.subspan(kHeader), key, kHeader);
}

bool body_ok(std::span<const std::byte> msg, std::uint64_t key) {
  return pattern_check(msg.subspan(kHeader), key, kHeader);
}

constexpr sim::Time kRetry = 1 * sim::kMillisecond;

}  // namespace

// --- InBuffer --------------------------------------------------------------------

std::size_t InBuffer::drain(TcpSocket& sock) {
  std::size_t total = 0;
  for (;;) {
    const newtos::RecvView v = sock.recv_zc();
    if (v.empty()) break;
    for (std::size_t i = 0; i < v.chunks; ++i) {
      buf_.insert(buf_.end(), v.chunk[i].begin(), v.chunk[i].end());
    }
    sock.consume(v.bytes);
    total += v.bytes;
  }
  return total;
}

void InBuffer::pop(std::size_t n) {
  head_ += n;
  if (head_ == buf_.size()) {
    buf_.clear();
    head_ = 0;
  } else if (head_ > 65536) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(head_));
    head_ = 0;
  }
}

// --- RpcServer -------------------------------------------------------------------

RpcServer::RpcServer(newtos::AppActor* app, std::uint16_t port,
                     RpcSpans& spans)
    : app_(app), port_(port), spans_(spans) {}

void RpcServer::start() {
  app_->call([this](sim::Context&) {
    listener_ = std::make_unique<TcpListener>(*app_);
    listener_->on_event([this](TcpEvent ev) {
      if (ev == TcpEvent::AcceptReady) on_accept();
    });
    listener_->bind_listen(newtos::net::Ipv4Addr{}, port_, 256,
                           [](bool) {});
  });
}

void RpcServer::on_accept() {
  while (auto sock = listener_->accept()) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* c = conns_.back().get();
    c->sock = std::move(sock);
    c->sock->on_event([this, c](TcpEvent ev) {
      if (c->dead) return;
      switch (ev) {
        case TcpEvent::Readable:
          on_readable(*c);
          break;
        case TcpEvent::Writable:
          send_next(*c);
          break;
        case TcpEvent::PeerClosed:
        case TcpEvent::Reset:
        case TcpEvent::Closed:
          bury(*c);
          break;
        default:
          break;
      }
    });
    on_readable(*c);  // data may have landed before registration
  }
}

void RpcServer::on_readable(Conn& c) {
  c.in.drain(*c.sock);
  for (;;) {
    const auto data = c.in.data();
    if (data.size() < kHeader) break;
    const Header h = read_header(data);
    if (h.bytes < kHeader || h.bytes > kMaxMessage || h.arg < kHeader ||
        h.arg > kMaxMessage) {
      ++bad_requests_;
      bury(c);
      return;
    }
    if (data.size() < h.bytes) break;
    if (!body_ok(data.first(h.bytes), request_key(h.id))) ++bad_requests_;
    request_bytes_ += h.bytes;
    if (auto* s = spans_.find(h.id)) s->seen = app_->cur().now();
    c.out.push_back(Response{h.id, h.arg});
    c.in.pop(h.bytes);
  }
  send_next(c);
}

void RpcServer::send_next(Conn& c) {
  if (c.dead || c.sending || c.out.empty()) return;
  const Response r = c.out.front();
  if (c.sock->send_space() < r.bytes) {
    retry_later(c);
    return;
  }
  newtos::SendReservation res = c.sock->reserve(r.bytes);
  if (!res.valid()) {
    retry_later(c);
    return;
  }
  write_message(res.chunk(0), Header{r.id, r.bytes, 0}, response_key(r.id));
  if (auto* s = spans_.find(r.id)) s->sent = app_->cur().now();
  c.sending = true;
  Conn* cp = &c;
  c.sock->submit(std::move(res), [this, cp](bool ok) {
    cp->sending = false;
    if (ok) {
      cp->out.pop_front();
      send_next(*cp);
    } else {
      retry_later(*cp);  // never queued: resending cannot duplicate
    }
  });
}

void RpcServer::retry_later(Conn& c) {
  Conn* cp = &c;
  app_->call_after(kRetry, [this, cp](sim::Context&) { send_next(*cp); });
}

void RpcServer::bury(Conn& c) {
  // Sockets die outside their own handler; the Conn record itself lives on
  // (timers may still point at it) with dead set.
  c.dead = true;
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  app_->call([this](sim::Context&) {
    sweep_scheduled_ = false;
    for (auto& conn : conns_) {
      if (conn->dead) conn->sock.reset();
    }
  });
}

// --- RpcClient -------------------------------------------------------------------

RpcClient::RpcClient(newtos::Node& node, newtos::AppActor* app, Config cfg,
                     RpcSpans& spans)
    : node_(node), app_(app), cfg_(std::move(cfg)), spans_(spans),
      rng_(cfg_.seed) {}

void RpcClient::start() {
  app_->call([this](sim::Context&) {
    for (int i = 0; i < cfg_.keepalive_conns; ++i) open(false);
  });
  next_due_ = cfg_.first_arrival;
  schedule_next_arrival();
}

void RpcClient::schedule_next_arrival() {
  // Every draw happens here, in arrival order, so the request sequence is a
  // pure function of the seed.
  const sim::Time due = next_due_;
  if (due > cfg_.last_arrival) return;
  const double gap_s =
      cfg_.poisson ? -std::log(1.0 - rng_.uniform()) / cfg_.rate_per_s
                   : 1.0 / cfg_.rate_per_s;
  next_due_ = due + static_cast<sim::Time>(gap_s * 1e9);
  const bool oneshot = rng_.chance(cfg_.oneshot_share);
  const std::uint32_t span = cfg_.response_max - cfg_.response_min + 1;
  const std::uint32_t response =
      cfg_.response_min + static_cast<std::uint32_t>(rng_.below(span));
  node_.sim().at(due, [this, due, oneshot, response] {
    schedule_next_arrival();
    app_->call([this, due, oneshot, response](sim::Context& ctx) {
      const Request r{next_id_++, due, response};
      gen_late_max_us_ = std::max(
          gen_late_max_us_, static_cast<double>(ctx.now() - due) / 1e3);
      if (r.due >= cfg_.window_start && r.due < cfg_.window_end) {
        ++attempted_;
      }
      Conn* target = nullptr;
      if (oneshot) {
        target = &open(true);
      } else {
        for (auto& c : conns_) {
          if (c->oneshot || c->dead || !c->connected) continue;
          if (target == nullptr || c->load() < target->load()) {
            target = c.get();
          }
        }
      }
      if (target == nullptr) {
        complete(r, false);  // no connection to carry it: refused
        return;
      }
      target->unsent.push_back(r);
      send_next(*target);
    });
  });
}

RpcClient::Conn& RpcClient::open(bool oneshot) {
  conns_.push_back(std::make_unique<Conn>());
  Conn* c = conns_.back().get();
  c->oneshot = oneshot;
  c->sock = std::make_unique<TcpSocket>(*app_);
  c->sock->on_event([this, c](TcpEvent ev) { on_event(*c, ev); });
  const auto dst = cfg_.servers[next_server_++ % cfg_.servers.size()];
  c->sock->connect(dst, cfg_.port, [this, c](bool ok) {
    if (!ok && !c->dead) {
      fail_all(*c);
      bury(*c);
    }
  });
  return *c;
}

void RpcClient::on_event(Conn& c, TcpEvent ev) {
  if (c.dead) return;
  switch (ev) {
    case TcpEvent::Connected:
      c.connected = true;
      send_next(c);
      break;
    case TcpEvent::Readable:
      on_readable(c);
      break;
    case TcpEvent::Writable:
      send_next(c);
      break;
    case TcpEvent::PeerClosed:
    case TcpEvent::Reset:
    case TcpEvent::Closed: {
      fail_all(c);
      const bool replace = !c.oneshot;
      bury(c);
      if (replace) open(false);  // keep the keep-alive pool at strength
      break;
    }
    default:
      break;
  }
}

void RpcClient::send_next(Conn& c) {
  if (c.dead || !c.connected || c.sending || c.unsent.empty()) return;
  if (c.sock->send_space() < cfg_.request_bytes) {
    Conn* cp = &c;
    app_->call_after(kRetry, [this, cp](sim::Context&) { send_next(*cp); });
    return;
  }
  newtos::SendReservation res = c.sock->reserve(cfg_.request_bytes);
  if (!res.valid()) {
    Conn* cp = &c;
    app_->call_after(kRetry, [this, cp](sim::Context&) { send_next(*cp); });
    return;
  }
  const Request r = c.unsent.front();
  c.unsent.pop_front();
  write_message(res.chunk(0), Header{r.id, cfg_.request_bytes, r.response_bytes},
                request_key(r.id));
  if (auto* s = spans_.find(r.id)) s->submit = app_->cur().now();
  c.awaiting.push_back(r);
  c.sending = true;
  Conn* cp = &c;
  c.sock->submit(std::move(res), [this, cp](bool ok) {
    cp->sending = false;
    if (!ok && !cp->awaiting.empty()) {
      // Never queued: move it back to the head of the unsent queue.
      cp->unsent.push_front(cp->awaiting.back());
      cp->awaiting.pop_back();
      app_->call_after(kRetry, [this, cp](sim::Context&) { send_next(*cp); });
      return;
    }
    send_next(*cp);
  });
}

void RpcClient::on_readable(Conn& c) {
  c.in.drain(*c.sock);
  for (;;) {
    const auto data = c.in.data();
    if (data.size() < kHeader) break;
    const Header h = read_header(data);
    const bool framed = h.bytes >= kHeader && h.bytes <= kMaxMessage;
    if (framed && data.size() < h.bytes) break;
    if (!framed || c.awaiting.empty()) {
      ++bad_responses_;
      fail_all(c);
      bury(c);
      return;
    }
    const Request r = c.awaiting.front();
    c.awaiting.pop_front();
    const bool ok = h.id == r.id && h.bytes == r.response_bytes &&
                    body_ok(data.first(h.bytes), response_key(r.id));
    response_bytes_ += h.bytes;
    if (auto* s = spans_.find(r.id)) s->done = app_->cur().now();
    complete(r, ok);
    c.in.pop(h.bytes);
    if (!ok) {
      ++bad_responses_;
      fail_all(c);
      bury(c);
      return;
    }
  }
  if (c.oneshot && c.awaiting.empty() && c.unsent.empty()) bury(c);
}

void RpcClient::complete(const Request& r, bool ok) {
  if (r.due < cfg_.window_start || r.due >= cfg_.window_end) return;
  if (ok) {
    ++completed_;
    latency_us_.add(static_cast<double>(app_->cur().now() - r.due) / 1e3);
  } else {
    ++failed_;
    latency_us_.add_failed();
  }
}

void RpcClient::fail_all(Conn& c) {
  for (const Request& r : c.awaiting) complete(r, false);
  for (const Request& r : c.unsent) complete(r, false);
  c.awaiting.clear();
  c.unsent.clear();
}

void RpcClient::bury(Conn& c) {
  c.dead = true;
  c.connected = false;
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  app_->call([this](sim::Context&) {
    sweep_scheduled_ = false;
    for (auto& conn : conns_) {
      if (conn->dead) conn->sock.reset();  // closes the kernel socket
    }
  });
}

void RpcClient::finish() {
  for (auto& c : conns_) {
    for (const Request& r : c->awaiting) {
      if (r.due >= cfg_.window_start && r.due < cfg_.window_end) {
        ++failed_;
        latency_us_.add_failed();
      }
    }
    for (const Request& r : c->unsent) {
      if (r.due >= cfg_.window_start && r.due < cfg_.window_end) {
        ++failed_;
        latency_us_.add_failed();
      }
    }
  }
}

// --- StreamSender / StreamReceiver ---------------------------------------------

StreamSender::StreamSender(newtos::AppActor* app, newtos::net::Ipv4Addr dst,
                           std::uint16_t port, std::uint64_t key)
    : app_(app), dst_(dst), port_(port), key_(key) {}

void StreamSender::start() {
  app_->call([this](sim::Context&) {
    sock_ = std::make_unique<TcpSocket>(*app_);
    sock_->on_event([this](TcpEvent ev) {
      switch (ev) {
        case TcpEvent::Connected:
          connected_ = true;
          ++connects_;
          pump();
          break;
        case TcpEvent::Writable:
          pump();
          break;
        case TcpEvent::Reset:
        case TcpEvent::Closed:
          // No reconnect: the stream's offsets would restart, and a reset
          // connection is exactly what checkpointing must prevent.
          connected_ = false;
          ++resets_;
          break;
        default:
          break;
      }
    });
    sock_->connect(dst_, port_, [this](bool ok) {
      if (!ok) ++resets_;
    });
  });
}

void StreamSender::pump() {
  if (!connected_ || in_flight_) return;
  if (sock_->send_space() < kWrite) {
    poll();
    return;
  }
  newtos::SendReservation res = sock_->reserve(kWrite);
  if (!res.valid()) {
    poll();
    return;
  }
  pattern_fill(res.chunk(0), key_, offset_);
  in_flight_ = true;
  sock_->submit(std::move(res), [this](bool ok) {
    in_flight_ = false;
    if (ok) {
      offset_ += kWrite;
      pump();
    } else {
      poll();  // never queued: rewriting the same offset cannot duplicate
    }
  });
}

void StreamSender::poll() {
  if (poll_scheduled_) return;
  poll_scheduled_ = true;
  app_->call_after(2 * sim::kMillisecond, [this](sim::Context&) {
    poll_scheduled_ = false;
    pump();
  });
}

StreamReceiver::StreamReceiver(newtos::AppActor* app, std::uint16_t port,
                               std::uint64_t key)
    : app_(app), port_(port), key_(key) {}

void StreamReceiver::start() {
  app_->call([this](sim::Context&) {
    listener_ = std::make_unique<TcpListener>(*app_);
    listener_->on_event([this](TcpEvent ev) {
      if (ev != TcpEvent::AcceptReady) return;
      while (auto sock = listener_->accept()) {
        ++accepted_;
        conn_ = std::move(sock);
        conn_->on_event([this](TcpEvent cev) {
          if (cev == TcpEvent::Readable) drain();
        });
        drain();
      }
    });
    listener_->bind_listen(newtos::net::Ipv4Addr{}, port_, 4, [](bool) {});
  });
}

void StreamReceiver::drain() {
  for (;;) {
    const newtos::RecvView v = conn_->recv_zc();
    if (v.empty()) break;
    std::uint64_t at = bytes_;
    for (std::size_t i = 0; i < v.chunks; ++i) {
      if (!pattern_check(v.chunk[i], key_, at)) bad_bytes_ += v.chunk[i].size();
      at += v.chunk[i].size();
    }
    conn_->consume(v.bytes);
    bytes_ += v.bytes;
  }
}

}  // namespace perf
