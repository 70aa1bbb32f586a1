// The benchmark's own applications, written against the public object
// socket API (TcpSocket / TcpListener).  Every byte they send is a pure
// function of a key and an offset (pattern_fill), and every byte they
// receive is checked against it, so a wrong, lost, duplicated or reordered
// byte shows up as a failed operation.
//
//  - RpcServer / RpcClient: an open-loop request/response service.  The
//    client draws Poisson arrivals from its seed (or runs at a fixed
//    period) and issues each request at its scheduled time over a pool of
//    keep-alive connections, or over a one-shot connection (connect,
//    request, response, close).  Latency counts from the scheduled time, so
//    a stall also delays the requests queued behind it.
//  - StreamSender / StreamReceiver: one bulk stream whose content is
//    checked end to end.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "metrics.h"
#include "src/core/socket.h"
#include "src/sim/rng.h"

namespace newtos {
class Node;
}

namespace perf {

namespace sim = newtos::sim;

// Per-request simulated spans, shared by client and server (both run in
// this process) and recorded only by traced runs.  Times are virtual.
struct RpcSpans {
  struct Span {
    sim::Time submit = -1;  // client submitted the request
    sim::Time seen = -1;    // server app holds the whole request
    sim::Time sent = -1;    // server submitted the response
    sim::Time done = -1;    // client holds the whole response
  };
  bool enabled = false;
  std::unordered_map<std::uint64_t, Span> by_id;

  Span* find(std::uint64_t id) {
    if (!enabled) return nullptr;
    return &by_id[id];
  }
};

// A byte stream received into a flat buffer (requests and responses are
// framed on top of TCP's byte stream).
class InBuffer {
 public:
  // Moves everything the socket holds into the buffer.
  std::size_t drain(newtos::TcpSocket& sock);
  std::span<const std::byte> data() const {
    return {buf_.data() + head_, buf_.size() - head_};
  }
  void pop(std::size_t n);

 private:
  std::vector<std::byte> buf_;
  std::size_t head_ = 0;
};

class RpcServer {
 public:
  RpcServer(newtos::AppActor* app, std::uint16_t port, RpcSpans& spans);
  void start();

  std::uint64_t request_bytes() const { return request_bytes_; }
  std::uint64_t bad_requests() const { return bad_requests_; }

 private:
  struct Response {
    std::uint64_t id = 0;
    std::uint32_t bytes = 0;
  };
  struct Conn {
    std::unique_ptr<newtos::TcpSocket> sock;
    InBuffer in;
    std::deque<Response> out;
    bool sending = false;  // one response in flight keeps them in order
    bool dead = false;
  };

  void on_accept();
  void on_readable(Conn& c);
  void send_next(Conn& c);
  void retry_later(Conn& c);
  void bury(Conn& c);

  newtos::AppActor* app_;
  std::uint16_t port_;
  RpcSpans& spans_;
  std::unique_ptr<newtos::TcpListener> listener_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool sweep_scheduled_ = false;
  std::uint64_t request_bytes_ = 0;
  std::uint64_t bad_requests_ = 0;
};

class RpcClient {
 public:
  struct Config {
    std::vector<newtos::net::Ipv4Addr> servers;  // spread round-robin
    std::uint16_t port = 7000;
    int keepalive_conns = 8;
    double rate_per_s = 1000.0;
    bool poisson = true;             // seeded Poisson arrivals, else periodic
    double oneshot_share = 0.0;      // requests on a fresh connection
    std::uint32_t request_bytes = 100;
    std::uint32_t response_min = 1024;
    std::uint32_t response_max = 4096;
    sim::Time first_arrival = 0;     // generator starts here...
    sim::Time last_arrival = 0;      // ...and stops here
    sim::Time window_start = 0;      // requests scheduled in
    sim::Time window_end = 0;        // [window_start, window_end) count
    std::uint64_t seed = 1;
  };

  RpcClient(newtos::Node& node, newtos::AppActor* app, Config cfg,
            RpcSpans& spans);
  void start();

  // Requests scheduled inside the window: latency samples (microseconds
  // from the scheduled send time; failures as +inf), and counts.
  const Samples& latency_us() const { return latency_us_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t completed() const { return completed_; }
  // Window requests that failed: refused, reset, wrong content, or still
  // unanswered when the run ends (call finish() first).
  std::uint64_t failed() const { return failed_; }
  std::uint64_t response_bytes() const { return response_bytes_; }
  // Responses with a wrong id, size or body, whenever they arrived.
  std::uint64_t bad_responses() const { return bad_responses_; }
  // Generator lateness: how long after its scheduled time a request's
  // issuing handler ran (max, microseconds).
  double gen_late_max_us() const { return gen_late_max_us_; }
  // Counts every window request still outstanding as timed out.
  void finish();

 private:
  struct Request {
    std::uint64_t id = 0;
    sim::Time due = 0;
    std::uint32_t response_bytes = 0;
  };
  struct Conn {
    std::unique_ptr<newtos::TcpSocket> sock;
    bool oneshot = false;
    bool connected = false;
    bool sending = false;
    bool dead = false;
    InBuffer in;
    std::deque<Request> unsent;
    std::deque<Request> awaiting;
    std::size_t load() const { return unsent.size() + awaiting.size(); }
  };

  void schedule_next_arrival();
  Conn& open(bool oneshot);
  void on_event(Conn& c, newtos::net::TcpEvent ev);
  void send_next(Conn& c);
  void on_readable(Conn& c);
  void complete(const Request& r, bool ok);
  void fail_all(Conn& c);
  void bury(Conn& c);

  newtos::Node& node_;
  newtos::AppActor* app_;
  Config cfg_;
  RpcSpans& spans_;
  newtos::sim::Rng rng_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t next_server_ = 0;
  bool sweep_scheduled_ = false;

  sim::Time next_due_ = 0;
  std::uint64_t next_id_ = 1;
  Samples latency_us_;
  std::uint64_t attempted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t response_bytes_ = 0;
  std::uint64_t bad_responses_ = 0;
  double gen_late_max_us_ = 0.0;
};

class StreamSender {
 public:
  StreamSender(newtos::AppActor* app, newtos::net::Ipv4Addr dst,
               std::uint16_t port, std::uint64_t key);
  void start();

  std::uint64_t bytes_written() const { return offset_; }
  int connects() const { return connects_; }
  int resets() const { return resets_; }

 private:
  static constexpr std::uint32_t kWrite = 65536;
  void pump();
  void poll();

  newtos::AppActor* app_;
  newtos::net::Ipv4Addr dst_;
  std::uint16_t port_;
  std::uint64_t key_;
  std::unique_ptr<newtos::TcpSocket> sock_;
  bool connected_ = false;
  bool in_flight_ = false;  // one write at a time keeps the bytes in order
  bool poll_scheduled_ = false;
  std::uint64_t offset_ = 0;  // bytes whose writes completed ok
  int connects_ = 0;
  int resets_ = 0;
};

class StreamReceiver {
 public:
  StreamReceiver(newtos::AppActor* app, std::uint16_t port,
                 std::uint64_t key);
  void start();

  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t bad_bytes() const { return bad_bytes_; }
  int accepted() const { return accepted_; }

 private:
  void drain();

  newtos::AppActor* app_;
  std::uint16_t port_;
  std::uint64_t key_;
  std::unique_ptr<newtos::TcpListener> listener_;
  std::unique_ptr<newtos::TcpSocket> conn_;
  std::uint64_t bytes_ = 0;
  std::uint64_t bad_bytes_ = 0;
  int accepted_ = 0;
};

}  // namespace perf
