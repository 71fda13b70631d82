// Characterization-daemon robustness: framing against torn/short/stormy
// wires, codec against garbage and mistyped payloads, the handler's typed
// error taxonomy, and the full server against its failure model — load
// shedding at saturation, per-request deadlines, mid-request disconnects,
// slow-loris clients, injected transport faults (serve::FaultConn via
// ServeOptions::conn_filter), and the SIGTERM-style graceful drain. Every
// fault must end in a typed reply or a classified close — never a crash,
// a hang, or a leaked connection (accepted == shed + closed).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "serve/framing.hpp"
#include "serve/handler.hpp"
#include "serve/sched.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/jsonl.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"

namespace limsynth::serve {
namespace {

const tech::Process& proc() {
  static const tech::Process p = tech::default_process();
  return p;
}

const tech::StdCellLib& cells() {
  static const tech::StdCellLib c(proc());
  return c;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool wait_for(const std::function<bool()>& pred, int budget_ms = 3000) {
  for (int spent = 0; spent < budget_ms; spent += 10) {
    if (pred()) return true;
    sleep_ms(10);
  }
  return pred();
}

/// In-memory Conn for deterministic framing tests: serves `input` to
/// reads, records writes. An exhausted input is kEof (peer closed) or
/// kTimeout (quiet wire), per `eof_at_end`.
class MemConn : public Conn {
 public:
  std::string input;
  bool eof_at_end = true;
  std::string written;

  TxResult read_some(char* buf, std::size_t max, int /*timeout_ms*/) override {
    if (pos_ >= input.size())
      return TxResult::fail(eof_at_end ? TxErr::kEof : TxErr::kTimeout);
    const std::size_t n = std::min(max, input.size() - pos_);
    std::memcpy(buf, input.data() + pos_, n);
    pos_ += n;
    return TxResult::good(n);
  }
  TxResult write_some(const char* buf, std::size_t n,
                      int /*timeout_ms*/) override {
    written.append(buf, n);
    return TxResult::good(n);
  }
  void close() override {}

 private:
  std::size_t pos_ = 0;
};

TxErr send_all(Conn& conn, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const TxResult r =
        conn.write_some(bytes.data() + off, bytes.size() - off, 1000);
    if (!r.ok()) return r.err;
    off += r.bytes;
  }
  return TxErr::kNone;
}

// ===================================================================
// Framing
// ===================================================================

TEST(Framing, EncodeRoundTrip) {
  for (const std::string& payload : {std::string("{\"op\":\"ping\"}"),
                                     std::string(""), std::string(1000, 'x')}) {
    MemConn conn;
    conn.input = encode_frame(payload);
    FrameReader reader(1 << 20);
    std::string got;
    EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kFrame);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(reader.poll(conn, 10, 1000, &got), FrameStatus::kEof);
  }
}

TEST(Framing, PipelinedFramesExtractedInOrder) {
  MemConn conn;
  conn.input = encode_frame("first") + encode_frame("second");
  FrameReader reader(1 << 20);
  std::string got;
  ASSERT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "first");
  ASSERT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "second");
}

TEST(Framing, TruncatedLengthPrefixIsTorn) {
  MemConn conn;
  conn.input = encode_frame("hello").substr(0, 2);  // half a prefix, then EOF
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kTorn);
}

TEST(Framing, TruncatedPayloadIsTorn) {
  MemConn conn;
  const std::string wire = encode_frame("hello world");
  conn.input = wire.substr(0, wire.size() - 4);
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kTorn);
}

TEST(Framing, OversizedDeclaredLengthRejectedBeforePayload) {
  // The declared length alone must trigger rejection — no allocation of
  // (and no waiting for) a phantom gigabyte payload.
  MemConn conn;
  conn.input = encode_frame(std::string(1000, 'x')).substr(0, 4);
  FrameReader reader(64);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 200, 1000, &got), FrameStatus::kOversized);
}

TEST(Framing, OneByteReadsStillAssemble) {
  auto base = std::make_unique<MemConn>();
  base->input = encode_frame("{\"op\":\"ping\",\"id\":\"x\"}");
  FaultConn conn(std::move(base));
  conn.max_chunk = 1;
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 2000, 5000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "{\"op\":\"ping\",\"id\":\"x\"}");
  EXPECT_GE(conn.reads, 20u);
}

TEST(Framing, EagainStormAbsorbedWithinDeadline) {
  auto base = std::make_unique<MemConn>();
  base->input = encode_frame("payload");
  FaultConn conn(std::move(base));
  conn.timeout_reads = 5;  // five spurious EAGAINs before any data
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 2000, 5000, &got), FrameStatus::kFrame);
  EXPECT_EQ(got, "payload");
}

TEST(Framing, QuietWireIsNeedMoreNotError) {
  MemConn conn;
  conn.eof_at_end = false;  // nothing arrives, wire stays up
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 30, 1000, &got), FrameStatus::kNeedMore);
  EXPECT_FALSE(reader.mid_frame());
}

TEST(Framing, StalledMidFrameIsSlowLoris) {
  MemConn conn;
  conn.input = encode_frame("a long payload").substr(0, 6);  // then silence
  conn.eof_at_end = false;
  FrameReader reader(1 << 20);
  std::string got;
  EXPECT_EQ(reader.poll(conn, 2000, 50, &got), FrameStatus::kSlowLoris);
  EXPECT_TRUE(reader.mid_frame());
}

TEST(Framing, WriteFrameLoopsOverShortWrites) {
  auto base = std::make_unique<MemConn>();
  MemConn* mem = base.get();
  FaultConn conn(std::move(base));
  conn.max_chunk = 3;
  EXPECT_EQ(write_frame(conn, "short-write payload", 1000), TxErr::kNone);
  EXPECT_EQ(mem->written, encode_frame("short-write payload"));
  EXPECT_GE(conn.writes, 7u);
}

TEST(Framing, TornWriteReportsReset) {
  FaultConn conn(std::make_unique<MemConn>());
  conn.torn_write_bytes = 2;  // two bytes leave, then the peer vanishes
  EXPECT_EQ(write_frame(conn, "doomed payload", 1000), TxErr::kReset);
}

// ===================================================================
// Codec
// ===================================================================

TEST(Codec, MinimalPingParsesWithDefaults) {
  Request req;
  std::string err;
  ASSERT_TRUE(parse_request("{\"op\":\"ping\"}", &req, &err)) << err;
  EXPECT_EQ(req.op, Op::kPing);
  EXPECT_EQ(req.id, "");
  EXPECT_EQ(req.kind, "sram8t");
  EXPECT_EQ(req.banks, 1);
  EXPECT_EQ(req.seed, 1u);
}

TEST(Codec, GarbageBytesRejected) {
  Request req;
  std::string err;
  const std::string cases[] = {
      "",
      "not json at all",
      "[1,2,3]",
      "\xff\xfe\x00\x01 binary junk",
      std::string("\0\0\0\0", 4),
      "{\"op\":\"ping\"",  // truncated object
  };
  for (const std::string& payload : cases) {
    err.clear();
    EXPECT_FALSE(parse_request(payload, &req, &err))
        << "accepted garbage: " << payload;
    EXPECT_FALSE(err.empty());
  }
}

TEST(Codec, NonUtf8OpRejected) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request("{\"op\":\"\xff\xfe\"}", &req, &err));
}

TEST(Codec, MissingAndUnknownOpRejected) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request("{\"id\":\"x\"}", &req, &err));
  EXPECT_FALSE(parse_request("{\"op\":\"frobnicate\"}", &req, &err));
}

TEST(Codec, MistypedFieldsRejected) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request(
      "{\"op\":\"characterize\",\"words\":\"sixty-four\"}", &req, &err));
  EXPECT_FALSE(
      parse_request("{\"op\":\"ping\",\"id\":42}", &req, &err));
  EXPECT_FALSE(parse_request(
      "{\"op\":\"analyze\",\"ecc\":\"maybe\"}", &req, &err));
}

TEST(Codec, ErrorReplyRoundTrips) {
  const std::string payload =
      make_error_reply("req-7", ErrorCode::kNonConvergence, "did not settle");
  ReplyFields f;
  ASSERT_TRUE(parse_reply(payload, &f));
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.id, "req-7");
  EXPECT_EQ(f.error_code, "non_convergence");
  EXPECT_EQ(f.error, "did not settle");
  EXPECT_LT(f.retry_after_ms, 0.0);
}

TEST(Codec, ShedReplyCarriesRetryAfter) {
  ReplyFields f;
  ASSERT_TRUE(parse_reply(make_shed_reply(250), &f));
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.error_code, "resource_exhausted");
  EXPECT_EQ(f.retry_after_ms, 250.0);
}

TEST(Codec, ReplyNumberReadsMetricFields) {
  JsonWriter w;
  w.add("id", std::string("x")).add("ok", true).add("read_delay_s", 4.2e-10);
  double v = 0.0;
  ASSERT_TRUE(reply_number(w.str(), "read_delay_s", &v));
  EXPECT_DOUBLE_EQ(v, 4.2e-10);
  EXPECT_FALSE(reply_number(w.str(), "absent_field", &v));
}

// ===================================================================
// Handler (direct, no sockets)
// ===================================================================

HandlerContext make_ctx(double deadline_s = 30.0) {
  HandlerContext ctx;
  ctx.process = &proc();
  ctx.cells = &cells();
  ctx.max_deadline_seconds = deadline_s;
  return ctx;
}

Request parse_ok(const std::string& payload) {
  Request req;
  std::string err;
  EXPECT_TRUE(parse_request(payload, &req, &err)) << err;
  return req;
}

TEST(Handler, PingEchoesId) {
  const Handled h = handle_request(parse_ok("{\"op\":\"ping\",\"id\":\"p1\"}"),
                                   make_ctx());
  EXPECT_TRUE(h.ok);
  ReplyFields f;
  ASSERT_TRUE(parse_reply(h.payload, &f));
  EXPECT_TRUE(f.ok);
  EXPECT_EQ(f.id, "p1");
}

TEST(Handler, CharacterizeReturnsPositiveMetrics) {
  const Handled h = handle_request(
      parse_ok("{\"op\":\"characterize\",\"words\":64,\"bits\":16}"),
      make_ctx());
  ASSERT_TRUE(h.ok) << h.payload;
  double v = 0.0;
  for (const char* field : {"read_delay_s", "write_energy_j", "min_cycle_s",
                            "leakage_w", "bank_area_m2"}) {
    ASSERT_TRUE(reply_number(h.payload, field, &v)) << field;
    EXPECT_GT(v, 0.0) << field;
  }
}

TEST(Handler, UnknownKindIsInvalidConfig) {
  const Handled h = handle_request(
      parse_ok(
          "{\"op\":\"characterize\",\"kind\":\"mystery\",\"words\":64,"
          "\"bits\":16}"),
      make_ctx());
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.code, ErrorCode::kInvalidConfig);
}

TEST(Handler, NonexistentLibertyIsIoError) {
  const Handled h = handle_request(
      parse_ok(
          "{\"op\":\"analyze\",\"words\":64,\"bits\":10,\"brick_words\":16,"
          "\"liberty\":\"/definitely/not/here.lib\"}"),
      make_ctx());
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.code, ErrorCode::kIo);
  ReplyFields f;
  ASSERT_TRUE(parse_reply(h.payload, &f));
  EXPECT_EQ(f.error_code, "io");
  EXPECT_NE(f.error.find("liberty"), std::string::npos);
}

TEST(Handler, SleepDeadlineIsResourceExhausted) {
  const auto t0 = std::chrono::steady_clock::now();
  const Handled h = handle_request(
      parse_ok("{\"op\":\"sleep\",\"sleep_ms\":30000,\"deadline_ms\":80}"),
      make_ctx());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.code, ErrorCode::kResourceExhausted);
  // The deadline preempted the sleep, not the other way round.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Handler, CancelFlagInterruptsPromptly) {
  std::atomic<bool> cancel{true};
  HandlerContext ctx = make_ctx();
  ctx.cancel = &cancel;
  const Handled h = handle_request(
      parse_ok("{\"op\":\"sleep\",\"sleep_ms\":30000}"), ctx);
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.code, ErrorCode::kInterrupted);
}

// ===================================================================
// Server integration over Unix sockets
// ===================================================================

/// One server on a unique Unix socket, run() on a background thread,
/// drained and joined by stop() (or the destructor).
class TestServer {
 public:
  explicit TestServer(ServeOptions opt = {}) {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    ep_.socket_path = testing::TempDir() + "lims_" +
                      std::to_string(::getpid()) + "_" + info->name() +
                      ".sock";
    opt.shutdown = &shutdown_;
    std::string err;
    listener_ = Transport::real().listen(ep_, &err);
    EXPECT_NE(listener_, nullptr) << err;
    HandlerContext ctx = make_ctx(opt.request_deadline_seconds);
    server_ = std::make_unique<Server>(*listener_, ctx, opt);
    thread_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() { stop(); }

  const Endpoint& endpoint() const { return ep_; }
  ServeStats stats() const { return server_->stats(); }
  std::vector<ClientStatsRow> client_rows() const {
    return server_->client_stats();
  }

  /// Drains, joins, and asserts the no-leak invariant.
  ServeStats stop() {
    if (thread_.joinable()) {
      shutdown_.store(true);
      thread_.join();
    }
    const ServeStats s = server_->stats();
    EXPECT_EQ(s.accepted, s.shed + s.closed)
        << "leaked connections: accepted=" << s.accepted
        << " shed=" << s.shed << " closed=" << s.closed;
    return s;
  }

  Client connect() { return Client(Transport::real(), ep_, 2000); }

 private:
  Endpoint ep_;
  std::atomic<bool> shutdown_{false};
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST(Server, PingAndCharacterizeOverOneConnection) {
  TestServer server;
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  CallResult r = client.call("{\"op\":\"ping\",\"id\":\"c1\"}");
  ASSERT_TRUE(r.transport_ok);
  ASSERT_TRUE(r.reply_parsed);
  EXPECT_TRUE(r.fields.ok);
  EXPECT_EQ(r.fields.id, "c1");

  r = client.call(
      "{\"op\":\"characterize\",\"id\":\"c2\",\"words\":64,\"bits\":16,"
      "\"stack\":2}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  double v = 0.0;
  ASSERT_TRUE(reply_number(r.payload, "min_cycle_s", &v));
  EXPECT_GT(v, 0.0);

  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.replies_ok, 2u);
  EXPECT_EQ(s.replies_error, 0u);
}

TEST(Server, MalformedPayloadGetsTypedReplyAndConnectionSurvives) {
  TestServer server;
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  CallResult r = client.call("\xff\xfe not even json");
  ASSERT_TRUE(r.transport_ok);
  ASSERT_TRUE(r.reply_parsed);
  EXPECT_FALSE(r.fields.ok);
  EXPECT_EQ(r.fields.error_code, "invalid_config");

  // The connection must still be usable: framing never lost sync.
  r = client.call("{\"op\":\"ping\",\"id\":\"after\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  EXPECT_EQ(r.fields.id, "after");

  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.protocol_errors, 1u);
}

TEST(Server, NonexistentLibertyFileIsTypedIoReply) {
  TestServer server;
  Client client = server.connect();
  CallResult r = client.call(
      "{\"op\":\"analyze\",\"id\":\"lib\",\"words\":64,\"bits\":10,"
      "\"brick_words\":16,\"liberty\":\"/no/such/file.lib\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_FALSE(r.fields.ok);
  EXPECT_EQ(r.fields.error_code, "io");

  // Still alive afterwards.
  r = client.call("{\"op\":\"ping\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  client.close();
  server.stop();
}

TEST(Server, OversizedFrameRejectedThenClosed) {
  TestServer server;
  ServeOptions opt;  // server default max_frame_bytes = 1 MiB
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  // A prefix declaring 256 MiB — reject on sight, do not wait for it.
  std::string prefix(4, '\0');
  prefix[0] = 0x10;
  ASSERT_EQ(send_all(*client.conn(), prefix), TxErr::kNone);

  FrameReader reader(1 << 20);
  std::string payload;
  ASSERT_EQ(reader.poll(*client.conn(), 2000, 2000, &payload),
            FrameStatus::kFrame);
  ReplyFields f;
  ASSERT_TRUE(parse_reply(payload, &f));
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.error_code, "invalid_config");
  EXPECT_NE(f.error.find("frame exceeds"), std::string::npos);

  // Framing may be unsynchronized after an oversized frame: the server
  // hangs up rather than guessing where the next frame starts.
  const FrameStatus after =
      reader.poll(*client.conn(), 2000, 2000, &payload);
  EXPECT_TRUE(after == FrameStatus::kEof || after == FrameStatus::kReset);

  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.protocol_errors, 1u);
  EXPECT_EQ(s.requests, 0u);
}

TEST(Server, MidRequestDisconnectCountedAndSurvived) {
  TestServer server;
  {
    Client client = server.connect();
    ASSERT_TRUE(client.connected());
    const std::string wire = encode_frame("{\"op\":\"ping\"}");
    ASSERT_EQ(send_all(*client.conn(), wire.substr(0, wire.size() / 2)),
              TxErr::kNone);
    client.close();  // vanish mid-frame
  }
  ASSERT_TRUE(wait_for([&] { return server.stats().disconnects >= 1; }));

  // The daemon shrugs it off and keeps serving.
  Client client = server.connect();
  const CallResult r = client.call("{\"op\":\"ping\",\"id\":\"ok\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  client.close();
  const ServeStats s = server.stop();
  EXPECT_GE(s.disconnects, 1u);
  EXPECT_EQ(s.replies_ok, 1u);
}

TEST(Server, SlowLorisClientIsTimedOutWithTypedReply) {
  ServeOptions opt;
  opt.frame_timeout_ms = 100;  // tight assembly budget for the test
  TestServer server(opt);
  Client client = server.connect();
  ASSERT_TRUE(client.connected());

  // Two bytes of prefix, then silence: a frame that will never finish.
  ASSERT_EQ(send_all(*client.conn(), std::string(2, '\0')), TxErr::kNone);
  ASSERT_TRUE(wait_for([&] { return server.stats().slow_loris >= 1; }));

  // Best-effort courtesy reply before the hangup.
  FrameReader reader(1 << 20);
  std::string payload;
  if (reader.poll(*client.conn(), 1000, 1000, &payload) ==
      FrameStatus::kFrame) {
    ReplyFields f;
    ASSERT_TRUE(parse_reply(payload, &f));
    EXPECT_EQ(f.error_code, "resource_exhausted");
  }
  client.close();
  const ServeStats s = server.stop();
  EXPECT_GE(s.slow_loris, 1u);
}

TEST(Server, DeadlineExceededIsTypedNotHung) {
  ServeOptions opt;
  opt.request_deadline_seconds = 30.0;
  TestServer server(opt);
  Client client = server.connect();
  const auto t0 = std::chrono::steady_clock::now();
  const CallResult r = client.call(
      "{\"op\":\"sleep\",\"id\":\"d\",\"sleep_ms\":60000,"
      "\"deadline_ms\":100}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_FALSE(r.fields.ok);
  EXPECT_EQ(r.fields.error_code, "resource_exhausted");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.deadline_exceeded, 1u);
}

TEST(Server, SaturationShedsWithRetryAfterAndNothingHangs) {
  // Capacity is workers + queue_depth = 3 concurrent connections; six
  // simultaneous clients (2x capacity) each hold a worker with a sleep
  // op. The overflow must get immediate retry_after_ms refusals — not
  // queue growth, not hangs — and the books must balance afterwards.
  ServeOptions opt;
  opt.workers = 2;
  opt.queue_depth = 1;
  TestServer server(opt);

  constexpr int kClients = 6;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = server.connect();
      if (!client.connected()) {
        ++other;
        return;
      }
      const CallResult r = client.call(
          "{\"op\":\"sleep\",\"id\":\"c" + std::to_string(i) +
          "\",\"sleep_ms\":400}");
      if (!r.transport_ok || !r.reply_parsed)
        ++other;
      else if (r.fields.ok)
        ++ok;
      else if (r.fields.retry_after_ms >= 0.0)
        ++shed;
      else
        ++other;
      client.close();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok + shed, kClients) << "unclassified outcomes: " << other;
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(shed.load(), 1) << "2x overload produced no shedding";
  const ServeStats s = server.stop();
  EXPECT_EQ(s.shed, static_cast<std::uint64_t>(shed.load()));
}

TEST(Client, ReadsAcceptShedQueuedBeforeItsRequestWriteFailed) {
  // An accept-level shed writes the refusal and closes without reading. A
  // client whose request write comes after that close sees the write
  // fail, but the refusal already sits in its receive queue: call() must
  // still return it, and call_retry() must treat it as a shed and retry
  // on a new connection.
  Endpoint ep;
  ep.socket_path = testing::TempDir() + "lims_" + std::to_string(::getpid()) +
                   "_late_write.sock";
  std::string err;
  std::unique_ptr<Listener> listener = Transport::real().listen(ep, &err);
  ASSERT_NE(listener, nullptr) << err;
  std::atomic<int> sheds{0};
  std::thread acceptor([&] {
    for (int i = 0; i < 2; ++i) {
      std::unique_ptr<Conn> c = listener->accept(5000);
      if (!c) return;
      write_frame(*c, make_shed_reply(5), 1000);
      c->close();
      sheds.store(i + 1);
    }
    std::unique_ptr<Conn> c = listener->accept(5000);
    if (!c) return;
    FrameReader reader(1 << 20);
    std::string request;
    if (reader.poll(*c, 5000, 5000, &request) == FrameStatus::kFrame)
      write_frame(*c, JsonWriter().add("id", "r").add("ok", true).str(), 1000);
    c->close();
  });
  const auto wait_sheds = [&](int n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (sheds.load() < n && std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return sheds.load() >= n;
  };

  // No ASSERT before the join below: the acceptor must not outlive us.
  Client first(Transport::real(), ep, 2000);
  EXPECT_TRUE(first.connected());
  EXPECT_TRUE(wait_sheds(1));  // the server has written and closed
  const CallResult r = first.call("{\"op\":\"ping\",\"id\":\"a\"}", 5000);
  EXPECT_NE(r.write_err, TxErr::kNone);
  EXPECT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.shed()) << r.payload;

  Client second(Transport::real(), ep, 2000);
  EXPECT_TRUE(second.connected());
  EXPECT_TRUE(wait_sheds(2));
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.jitter_seed = 7;
  const RetryResult rr =
      second.call_retry("{\"op\":\"ping\",\"id\":\"r\"}", policy, 5000);
  acceptor.join();
  EXPECT_EQ(rr.attempts, 2);
  EXPECT_TRUE(rr.last.fields.ok) << rr.last.payload;
  first.close();
  second.close();
}

TEST(Server, InjectedShortReadsAndEagainStillServe) {
  // Every accepted connection goes through a FaultConn forcing 1-byte
  // reads and a leading EAGAIN storm — the production read path must
  // reassemble frames regardless.
  ServeOptions opt;
  opt.conn_filter = [](std::unique_ptr<Conn> base) -> std::unique_ptr<Conn> {
    auto fc = std::make_unique<FaultConn>(std::move(base));
    fc->max_chunk = 1;
    fc->timeout_reads = 3;
    return fc;
  };
  TestServer server(opt);
  Client client = server.connect();
  const CallResult r = client.call(
      "{\"op\":\"characterize\",\"id\":\"f\",\"words\":32,\"bits\":8}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok) << r.payload;
  client.close();
  server.stop();
}

TEST(Server, TornReplyWriteIsCountedDisconnect) {
  // First accepted connection gets a wire that tears after 5 reply
  // bytes; the server must classify it as a disconnect and keep serving
  // later clients (whose wires are honest).
  std::atomic<int> accepted{0};
  ServeOptions opt;
  opt.conn_filter =
      [&accepted](std::unique_ptr<Conn> base) -> std::unique_ptr<Conn> {
    if (accepted.fetch_add(1) > 0) return base;
    auto fc = std::make_unique<FaultConn>(std::move(base));
    fc->torn_write_bytes = 5;
    return fc;
  };
  TestServer server(opt);
  {
    Client client = server.connect();
    const CallResult r = client.call("{\"op\":\"ping\"}", 2000);
    EXPECT_FALSE(r.transport_ok && r.fields.ok);
    client.close();
  }
  ASSERT_TRUE(wait_for([&] { return server.stats().disconnects >= 1; }));

  Client client = server.connect();
  const CallResult r = client.call("{\"op\":\"ping\",\"id\":\"ok\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  client.close();
  const ServeStats s = server.stop();
  EXPECT_GE(s.disconnects, 1u);
}

TEST(Server, StatsOpReportsLiveCounters) {
  TestServer server;
  Client client = server.connect();
  ASSERT_TRUE(client.call("{\"op\":\"ping\"}").fields.ok);
  const CallResult r = client.call("{\"op\":\"stats\",\"id\":\"s\"}");
  ASSERT_TRUE(r.transport_ok);
  EXPECT_TRUE(r.fields.ok);
  double v = 0.0;
  ASSERT_TRUE(reply_number(r.payload, "accepted", &v));
  EXPECT_GE(v, 1.0);
  ASSERT_TRUE(reply_number(r.payload, "requests", &v));
  EXPECT_GE(v, 2.0);
  ASSERT_TRUE(reply_number(r.payload, "cache_entries", &v));
  client.close();
  server.stop();
}

TEST(Server, GracefulDrainAnswersInFlightAndQueued) {
  // One worker: client A's sleep holds it while client B waits in the
  // queue. The drain must answer A (completed or interrupted — a typed
  // reply either way) and give B an explicit shed reply, leaving no
  // connection unaccounted for.
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 4;
  TestServer server(opt);

  CallResult ra, rb;
  std::thread ta([&] {
    Client a = server.connect();
    ra = a.call("{\"op\":\"sleep\",\"id\":\"a\",\"sleep_ms\":1500}");
    a.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().requests >= 1; }));
  std::thread tb([&] {
    Client b = server.connect();
    rb = b.call("{\"op\":\"sleep\",\"id\":\"b\",\"sleep_ms\":1500}");
    b.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().accepted >= 2; }));

  const auto t0 = std::chrono::steady_clock::now();
  const ServeStats s = server.stop();  // the drain
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  ta.join();
  tb.join();

  // A was in flight: it gets a real reply — ok if the sleep finished,
  // interrupted if the drain flag preempted it.
  ASSERT_TRUE(ra.transport_ok);
  ASSERT_TRUE(ra.reply_parsed);
  if (!ra.fields.ok) {
    EXPECT_EQ(ra.fields.error_code, "interrupted");
  }
  // B never reached a worker: an explicit shed reply, not an abandoned
  // socket.
  ASSERT_TRUE(rb.transport_ok);
  ASSERT_TRUE(rb.reply_parsed);
  EXPECT_FALSE(rb.fields.ok);
  EXPECT_GE(rb.fields.retry_after_ms, 0.0);
  EXPECT_GE(s.drained, 1u);
}

// ===================================================================
// Codec: batch frames (fuzz-shaped malformed input)
// ===================================================================

TEST(Codec, BatchItemsSplitOnNewlines) {
  JsonWriter w;
  w.add("op", std::string("batch"));
  w.add("items",
        std::string("{\"op\":\"ping\",\"id\":\"a\"}\n"
                    "{\"op\":\"ping\",\"id\":\"b\"}\n"));
  Request req;
  std::string err;
  ASSERT_TRUE(parse_request(w.str(), &req, &err)) << err;
  EXPECT_EQ(req.op, Op::kBatch);
  ASSERT_EQ(req.batch.size(), 2u);  // trailing newline is not an item
  EXPECT_EQ(req.batch[0], "{\"op\":\"ping\",\"id\":\"a\"}");
}

TEST(Codec, MalformedBatchFramesRejected) {
  Request req;
  std::string err;
  // No items field at all.
  EXPECT_FALSE(parse_request("{\"op\":\"batch\"}", &req, &err));
  // items is not a string.
  EXPECT_FALSE(parse_request("{\"op\":\"batch\",\"items\":42}", &req, &err));
  // items present but carries nothing (only blank lines).
  EXPECT_FALSE(
      parse_request("{\"op\":\"batch\",\"items\":\"\"}", &req, &err));
  EXPECT_FALSE(
      parse_request("{\"op\":\"batch\",\"items\":\"\\n\\n\"}", &req, &err));
}

TEST(Codec, OversizedBatchRejectedAtParse) {
  std::string items;
  for (int i = 0; i <= kMaxBatchItems; ++i)
    items += "{\"op\":\"ping\"}\n";
  JsonWriter w;
  w.add("op", std::string("batch")).add("items", items);
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request(w.str(), &req, &err));
  EXPECT_NE(err.find("exceeds"), std::string::npos);
}

TEST(Codec, DuplicateIdBatchItemsParseIndividually) {
  // Duplicate ids are the caller's business: the codec keeps both items
  // and each reply line echoes its own id.
  JsonWriter w;
  w.add("op", std::string("batch"));
  w.add("items",
        std::string("{\"op\":\"ping\",\"id\":\"dup\"}\n"
                    "{\"op\":\"ping\",\"id\":\"dup\"}"));
  Request req;
  std::string err;
  ASSERT_TRUE(parse_request(w.str(), &req, &err)) << err;
  EXPECT_EQ(req.batch.size(), 2u);
}

TEST(Codec, FingerprintIgnoresCallerIdentityOnly) {
  Request a = parse_ok("{\"op\":\"sleep\",\"id\":\"x\",\"sleep_ms\":10}");
  Request b = parse_ok(
      "{\"op\":\"sleep\",\"id\":\"y\",\"client_id\":\"other\","
      "\"sleep_ms\":10}");
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));
  // Semantic fields change the fingerprint — including deadline_ms: the
  // same shape under a tighter budget is different work.
  Request c = parse_ok("{\"op\":\"sleep\",\"sleep_ms\":11}");
  Request d = parse_ok("{\"op\":\"sleep\",\"sleep_ms\":10,\"deadline_ms\":5}");
  EXPECT_NE(request_fingerprint(a), request_fingerprint(c));
  EXPECT_NE(request_fingerprint(a), request_fingerprint(d));
}

// ===================================================================
// Scheduler (direct): DRR, quotas, deadline admission, breaker
// ===================================================================

Request sleep_req(const std::string& id, double ms) {
  return parse_ok("{\"op\":\"sleep\",\"id\":\"" + id +
                  "\",\"sleep_ms\":" + std::to_string(ms) + "}");
}

TEST(Sched, DrrAlternatesBetweenBackloggedClients) {
  Scheduler sched({});
  // Greedy queues three before polite queues one.
  ASSERT_NE(sched.submit(sleep_req("g1", 1), "greedy").item, nullptr);
  ASSERT_NE(sched.submit(sleep_req("g2", 1), "greedy").item, nullptr);
  ASSERT_NE(sched.submit(sleep_req("g3", 1), "greedy").item, nullptr);
  ASSERT_NE(sched.submit(sleep_req("p1", 1), "polite").item, nullptr);
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) order.push_back(sched.pop()->req.id);
  // Round-robin: polite's single request goes second, not fourth.
  EXPECT_EQ(order, (std::vector<std::string>{"g1", "p1", "g2", "g3"}));
}

TEST(Sched, BatchPaysItsItemCountInDrrCredit) {
  Scheduler sched({});
  Request batch = parse_ok(
      "{\"op\":\"batch\",\"id\":\"bigbatch\",\"items\":"
      "\"{\\\"op\\\":\\\"ping\\\"}\\n{\\\"op\\\":\\\"ping\\\"}\\n"
      "{\\\"op\\\":\\\"ping\\\"}\"}");
  ASSERT_EQ(batch.batch.size(), 3u);
  ASSERT_NE(sched.submit(batch, "greedy").item, nullptr);
  ASSERT_NE(sched.submit(sleep_req("p1", 1), "polite").item, nullptr);
  // The 3-item batch needs 3 rotations of credit; polite's single
  // request overtakes it.
  EXPECT_EQ(sched.pop()->req.id, "p1");
  EXPECT_EQ(sched.pop()->req.id, "bigbatch");
}

TEST(Sched, TokenBucketShedsWithRefillTime) {
  Scheduler::Options opt;
  opt.default_quota = {2.0, 1.0};  // 2 rps, burst 1
  Scheduler sched(opt);
  const Admission first = sched.submit(sleep_req("a", 1), "c");
  EXPECT_EQ(first.verdict, Admission::Verdict::kAdmitted);
  const Admission second = sched.submit(sleep_req("b", 1), "c");
  EXPECT_EQ(second.verdict, Admission::Verdict::kShedQuota);
  // One token at 2 rps refills in 500 ms; a few ms may already have
  // elapsed since the first call refilled the bucket.
  EXPECT_GT(second.retry_after_ms, 0);
  EXPECT_LE(second.retry_after_ms, 500);
  // Another tenant has its own bucket.
  EXPECT_EQ(sched.submit(sleep_req("c", 1), "other").verdict,
            Admission::Verdict::kAdmitted);
  // Conservation: admitted-but-unexecuted items are settled by drain,
  // and the quota shed was counted against tenant c alone.
  sched.drain();
  for (const ClientStatsRow& row : sched.client_stats()) {
    EXPECT_TRUE(row.n.conserved()) << row.id;
    if (row.id == "c") {
      EXPECT_EQ(row.n.shed_quota, 1u);
    }
  }
}

TEST(Sched, DeadlineAdmissionRejectsOnceEwmaSaysUnmeetable) {
  Scheduler::Options opt;
  opt.workers = 1;
  Scheduler sched(opt);
  // Prime the sleep-op EWMA at 100 ms.
  WorkItem done;
  done.req = sleep_req("seed", 100);
  done.client = "c";
  sched.record_service(done, true, 0.1, false);
  // A 50 ms deadline cannot be met when the op itself estimates 100 ms.
  Request tight = parse_ok(
      "{\"op\":\"sleep\",\"id\":\"t\",\"sleep_ms\":100,\"deadline_ms\":50}");
  const Admission rejected = sched.submit(tight, "c");
  EXPECT_EQ(rejected.verdict, Admission::Verdict::kShedDeadline);
  EXPECT_GE(rejected.estimated_wait_ms, 100.0);
  // A generous deadline is admitted; queued work now counts against the
  // next estimate (backlog / workers + op estimate).
  Request loose = parse_ok(
      "{\"op\":\"sleep\",\"id\":\"l\",\"sleep_ms\":100,"
      "\"deadline_ms\":5000}");
  EXPECT_EQ(sched.submit(loose, "c").verdict, Admission::Verdict::kAdmitted);
  Request mid = parse_ok(
      "{\"op\":\"sleep\",\"id\":\"m\",\"sleep_ms\":100,"
      "\"deadline_ms\":150}");
  // Backlog estimate 100ms + own 100ms = 200ms > 150ms.
  EXPECT_EQ(sched.submit(mid, "c").verdict,
            Admission::Verdict::kShedDeadline);
}

TEST(Sched, DrainFulfillsQueuedWithTypedShedReplies) {
  Scheduler sched({});
  const Admission adm = sched.submit(sleep_req("q", 1), "c");
  ASSERT_NE(adm.item, nullptr);
  EXPECT_EQ(sched.drain(), 1u);
  const std::string& reply = adm.item->wait();  // must not block
  ReplyFields f;
  ASSERT_TRUE(parse_reply(reply, &f));
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.error_code, "resource_exhausted");
  EXPECT_GE(f.retry_after_ms, 0.0);
  // Post-drain submits are refused, not leaked.
  EXPECT_EQ(sched.submit(sleep_req("late", 1), "c").verdict,
            Admission::Verdict::kShedDrain);
  // pop() reports drained-and-empty instead of blocking.
  EXPECT_EQ(sched.pop(), nullptr);
  for (const ClientStatsRow& row : sched.client_stats())
    EXPECT_TRUE(row.n.conserved()) << row.id;
}

TEST(Sched, PoisonBreakerTripsOnConsecutiveDeathsOnly) {
  PoisonBreaker breaker(3);
  const std::uint64_t fp = 0xfeedbeefu;
  std::string msg;
  breaker.record(fp, false, ErrorCode::kResourceExhausted);
  breaker.record(fp, false, ErrorCode::kInternal);
  EXPECT_FALSE(breaker.quarantined(fp, &msg));
  // A success resets the streak entirely.
  breaker.record(fp, true, ErrorCode::kInternal);
  breaker.record(fp, false, ErrorCode::kResourceExhausted);
  breaker.record(fp, false, ErrorCode::kResourceExhausted);
  EXPECT_FALSE(breaker.quarantined(fp, nullptr));
  breaker.record(fp, false, ErrorCode::kResourceExhausted);
  EXPECT_TRUE(breaker.quarantined(fp, &msg));
  EXPECT_NE(msg.find("quarantined"), std::string::npos);
  EXPECT_EQ(breaker.quarantined_fingerprints(), 1u);
  // Typed rejects and drain preemption are not deaths.
  PoisonBreaker clean(1);
  clean.record(fp, false, ErrorCode::kInvalidConfig);
  clean.record(fp, false, ErrorCode::kInterrupted);
  clean.record(fp, false, ErrorCode::kIo);
  EXPECT_FALSE(clean.quarantined(fp, nullptr));
}

// ===================================================================
// Server: quotas, deadline admission, batches, poison, fairness
// ===================================================================

std::string batch_request(const std::string& id,
                          const std::vector<std::string>& items) {
  std::string joined;
  for (const std::string& item : items) {
    if (!joined.empty()) joined += '\n';
    joined += item;
  }
  JsonWriter w;
  w.add("op", std::string("batch")).add("id", id).add("items", joined);
  return w.str();
}

std::string batch_results(const std::string& reply_payload) {
  std::string results;
  const std::size_t pos = jsonl::find_field(reply_payload, "results");
  EXPECT_NE(pos, std::string::npos) << reply_payload;
  if (pos != std::string::npos) {
    EXPECT_TRUE(jsonl::read_string(reply_payload, pos, &results));
  }
  return results;
}

TEST(Server, QuotaShedsWithRefillRetryAfterAndRecovers) {
  ServeOptions opt;
  opt.quota_rps = 2.0;
  opt.quota_burst = 1.0;
  TestServer server(opt);
  Client client = server.connect();
  ASSERT_TRUE(client.call("{\"op\":\"ping\",\"id\":\"q1\"}").fields.ok);
  const CallResult shed = client.call("{\"op\":\"ping\",\"id\":\"q2\"}");
  ASSERT_TRUE(shed.transport_ok);
  EXPECT_FALSE(shed.fields.ok);
  EXPECT_EQ(shed.fields.error_code, "resource_exhausted");
  EXPECT_GT(shed.fields.retry_after_ms, 0.0);
  EXPECT_LE(shed.fields.retry_after_ms, 500.0);
  // The connection survives a quota shed (unlike an accept-level shed).
  sleep_ms(static_cast<int>(shed.fields.retry_after_ms) + 50);
  EXPECT_TRUE(client.call("{\"op\":\"ping\",\"id\":\"q3\"}").fields.ok);
  // An explicit client_id is its own bucket, unaffected by this conn's.
  EXPECT_TRUE(
      client.call("{\"op\":\"ping\",\"id\":\"q4\",\"client_id\":\"vip\"}")
          .fields.ok);
  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.quota_shed, 1u);
  for (const ClientStatsRow& row : server.client_rows())
    EXPECT_TRUE(row.n.conserved()) << row.id;
}

TEST(Server, CallRetryHonorsRetryAfterAndSucceeds) {
  ServeOptions opt;
  opt.quota_rps = 4.0;  // one token refills in 250 ms
  opt.quota_burst = 1.0;
  TestServer server(opt);
  Client client = server.connect();
  ASSERT_TRUE(client.call("{\"op\":\"ping\",\"id\":\"r1\"}").fields.ok);
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.jitter_seed = 42;
  const RetryResult rr =
      client.call_retry("{\"op\":\"ping\",\"id\":\"r2\"}", policy);
  EXPECT_TRUE(rr.last.fields.ok) << rr.last.payload;
  EXPECT_GE(rr.attempts, 2);  // first attempt was shed
  EXPECT_GE(rr.total_backoff_ms, 1);
  // With no retry budget the shed comes straight back.
  const RetryResult rr0 =
      client.call_retry("{\"op\":\"ping\",\"id\":\"r3\"}", RetryPolicy{});
  EXPECT_TRUE(rr0.last.shed());
  EXPECT_EQ(rr0.attempts, 1);
  client.close();
  server.stop();
}

TEST(Server, DeadlineAdmissionRejectsAtEnqueue) {
  TestServer server;
  Client client = server.connect();
  // Prime the sleep EWMA at ~120 ms.
  ASSERT_TRUE(
      client.call("{\"op\":\"sleep\",\"id\":\"p\",\"sleep_ms\":120}")
          .fields.ok);
  // The same op under a 30 ms deadline is refused before queueing — in
  // microseconds, not after burning 30 ms of a worker.
  const auto t0 = std::chrono::steady_clock::now();
  const CallResult r = client.call(
      "{\"op\":\"sleep\",\"id\":\"d\",\"sleep_ms\":120,\"deadline_ms\":30}");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r.transport_ok);
  EXPECT_FALSE(r.fields.ok);
  EXPECT_EQ(r.fields.error_code, "resource_exhausted");
  double est = 0.0;
  EXPECT_TRUE(reply_number(r.payload, "estimated_wait_ms", &est));
  EXPECT_GE(est, 30.0);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.deadline_rejected, 1u);
  EXPECT_EQ(s.deadline_exceeded, 0u);  // never started, never killed
}

TEST(Server, BatchResultsByteIdenticalToIndividualCalls) {
  TestServer server;
  Client client = server.connect();
  const std::vector<std::string> items = {
      "{\"op\":\"ping\",\"id\":\"i1\"}",
      "{\"op\":\"characterize\",\"id\":\"i2\",\"words\":32,\"bits\":8}",
      "{\"op\":\"characterize\",\"id\":\"i3\",\"kind\":\"mystery\","
      "\"words\":8,\"bits\":4}",
      "this is not json",
      "{\"op\":\"dse_point\",\"id\":\"i5\",\"words\":64,\"bits\":8,"
      "\"brick_words\":16}",
  };
  std::vector<std::string> individual;
  for (const std::string& item : items) {
    const CallResult r = client.call(item);
    ASSERT_TRUE(r.transport_ok) << item;
    individual.push_back(r.payload);
  }
  const CallResult br = client.call(batch_request("b1", items));
  ASSERT_TRUE(br.transport_ok);
  ASSERT_TRUE(br.fields.ok) << br.payload;  // envelope ok; verdicts inside
  double v = 0.0;
  ASSERT_TRUE(reply_number(br.payload, "count", &v));
  EXPECT_EQ(v, 5.0);
  ASSERT_TRUE(reply_number(br.payload, "failed", &v));
  EXPECT_EQ(v, 2.0);  // bad kind + malformed line
  std::string joined;
  for (const std::string& payload : individual) {
    if (!joined.empty()) joined += '\n';
    joined += payload;
  }
  EXPECT_EQ(batch_results(br.payload), joined);
  client.close();
  const ServeStats s = server.stop();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batch_items, 5u);
}

TEST(Server, PoisonFingerprintQuarantinedAfterRepeatedDeaths) {
  ServeOptions opt;
  opt.request_deadline_seconds = 0.1;  // every long sleep dies fast
  opt.poison_threshold = 2;
  TestServer server(opt);
  Client client = server.connect();
  const std::string poison =
      "{\"op\":\"sleep\",\"id\":\"px\",\"sleep_ms\":10000}";
  for (int i = 0; i < 2; ++i) {
    const CallResult r = client.call(poison);
    ASSERT_TRUE(r.transport_ok);
    EXPECT_EQ(r.fields.error_code, "resource_exhausted") << r.payload;
  }
  // Third execution is refused without running: typed `quarantined`,
  // answered faster than burning the 100 ms watchdog budget would take
  // (with headroom below the budget for CI scheduling noise).
  const auto t0 = std::chrono::steady_clock::now();
  const CallResult q = client.call(poison);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(q.transport_ok);
  EXPECT_FALSE(q.fields.ok);
  EXPECT_EQ(q.fields.error_code, "quarantined") << q.payload;
  EXPECT_LT(elapsed, std::chrono::milliseconds(80));
  // The same poisoned item inside a batch yields the byte-identical
  // refusal line.
  const CallResult br = client.call(batch_request("pb", {poison}));
  ASSERT_TRUE(br.transport_ok);
  EXPECT_EQ(batch_results(br.payload), q.payload);
  // A different shape still executes (and dies on its own merits).
  const CallResult other =
      client.call("{\"op\":\"sleep\",\"id\":\"oy\",\"sleep_ms\":10001}");
  EXPECT_EQ(other.fields.error_code, "resource_exhausted") << other.payload;
  // Stats see both the refusals and the tripped fingerprint.
  const CallResult st = client.call("{\"op\":\"stats\",\"id\":\"s\"}");
  double v = 0.0;
  ASSERT_TRUE(reply_number(st.payload, "quarantined", &v));
  EXPECT_GE(v, 2.0);
  ASSERT_TRUE(reply_number(st.payload, "quarantined_fingerprints", &v));
  EXPECT_EQ(v, 1.0);
  client.close();
  server.stop();
}

TEST(Server, FairSchedulingUnderGreedyOverload) {
  // One greedy tenant floods the daemon from many connections while a
  // well-behaved tenant sends sequential requests. With FIFO the polite
  // tenant's latency would include the whole greedy backlog; with DRR it
  // waits at most ~one in-service item plus one rotation. Acceptance:
  // polite sheds nothing and its p99 stays within 3x of its unloaded
  // p99 (with a floor for CI scheduling noise).
  ServeOptions opt;
  opt.workers = 2;
  opt.queue_depth = 16;
  TestServer server(opt);
  constexpr int kGreedyConns = 10;
  constexpr double kServiceMs = 25.0;
  const std::string polite_req =
      "{\"op\":\"sleep\",\"id\":\"p\",\"client_id\":\"polite\","
      "\"sleep_ms\":" +
      std::to_string(kServiceMs) + "}";
  const std::string greedy_req =
      "{\"op\":\"sleep\",\"id\":\"g\",\"client_id\":\"greedy\","
      "\"sleep_ms\":" +
      std::to_string(kServiceMs) + "}";

  Client polite = server.connect();
  ASSERT_TRUE(polite.connected());
  const auto timed_call = [&](const std::string& req) {
    const auto t0 = std::chrono::steady_clock::now();
    const CallResult r = polite.call(req, 10000);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_TRUE(r.transport_ok && r.fields.ok) << r.payload;
    return ms;
  };

  // Unloaded baseline p99 (max over a small sample).
  double unloaded_p99 = 0.0;
  for (int i = 0; i < 8; ++i)
    unloaded_p99 = std::max(unloaded_p99, timed_call(polite_req));

  // Greedy flood: each connection fires back-to-back requests.
  std::atomic<bool> stop_flood{false};
  std::atomic<int> greedy_served{0};
  std::vector<std::thread> flood;
  flood.reserve(kGreedyConns);
  for (int i = 0; i < kGreedyConns; ++i) {
    flood.emplace_back([&] {
      Client g = server.connect();
      if (!g.connected()) return;
      while (!stop_flood.load()) {
        const CallResult r = g.call(greedy_req, 10000);
        if (!r.transport_ok) break;
        if (r.fields.ok) greedy_served.fetch_add(1);
      }
      g.close();
    });
  }
  // Let the greedy backlog build.
  ASSERT_TRUE(wait_for([&] { return greedy_served.load() >= 4; }, 10000));

  double loaded_p99 = 0.0;
  for (int i = 0; i < 8; ++i)
    loaded_p99 = std::max(loaded_p99, timed_call(polite_req));
  stop_flood.store(true);
  for (auto& t : flood) t.join();

  // Shed rate 0 for the polite tenant (asserted inside timed_call), and
  // bounded latency inflation. FIFO over a ~10-deep greedy backlog
  // would cost ~(10/2)*25 = 125+ ms per polite request.
  EXPECT_LT(loaded_p99, std::max(3.0 * unloaded_p99, 120.0))
      << "unloaded p99 " << unloaded_p99 << " ms";
  EXPECT_GE(greedy_served.load(), 4);

  polite.close();
  server.stop();
  // Per-tenant conservation, and the greedy tenant dominated throughput
  // without starving polite.
  bool saw_polite = false, saw_greedy = false;
  for (const ClientStatsRow& row : server.client_rows()) {
    EXPECT_TRUE(row.n.conserved())
        << row.id << ": accepted=" << row.n.accepted
        << " served=" << row.n.served() << " shed=" << row.n.shed();
    if (row.id == "polite") {
      saw_polite = true;
      EXPECT_EQ(row.n.shed(), 0u);
      EXPECT_EQ(row.n.served_ok, 16u);
    }
    if (row.id == "greedy") saw_greedy = true;
  }
  EXPECT_TRUE(saw_polite);
  EXPECT_TRUE(saw_greedy);
}

TEST(Server, DrainFlushesConservedPerClientAccounting) {
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_depth = 6;
  TestServer server(opt);
  // One in-flight request holds the worker; two queued requests from
  // different tenants get drain-shed replies.
  CallResult ra, rb, rc;
  std::thread ta([&] {
    Client a = server.connect();
    ra = a.call(
        "{\"op\":\"sleep\",\"id\":\"a\",\"client_id\":\"t1\","
        "\"sleep_ms\":1500}");
    a.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().requests >= 1; }));
  std::thread tb([&] {
    Client b = server.connect();
    rb = b.call(
        "{\"op\":\"sleep\",\"id\":\"b\",\"client_id\":\"t2\","
        "\"sleep_ms\":1500}");
    b.close();
  });
  std::thread tc([&] {
    Client c = server.connect();
    rc = c.call(
        "{\"op\":\"sleep\",\"id\":\"c\",\"client_id\":\"t2\","
        "\"sleep_ms\":1500}");
    c.close();
  });
  ASSERT_TRUE(wait_for([&] { return server.stats().requests >= 3; }));

  const ServeStats s = server.stop();
  ta.join();
  tb.join();
  tc.join();
  EXPECT_GE(s.drained, 2u);
  // Every tenant's books balance after the drain flush.
  std::uint64_t total_accepted = 0;
  for (const ClientStatsRow& row : server.client_rows()) {
    EXPECT_TRUE(row.n.conserved())
        << row.id << ": accepted=" << row.n.accepted
        << " served=" << row.n.served() << " shed=" << row.n.shed();
    total_accepted += row.n.accepted;
  }
  EXPECT_EQ(total_accepted, s.requests);
  // The queued tenants saw typed shed replies with retry hints.
  for (const CallResult* r : {&rb, &rc}) {
    ASSERT_TRUE(r->transport_ok);
    EXPECT_FALSE(r->fields.ok);
    EXPECT_GE(r->fields.retry_after_ms, 0.0);
  }
}

}  // namespace
}  // namespace limsynth::serve
