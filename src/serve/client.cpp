#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace limsynth::serve {

Client::Client(Transport& transport, const Endpoint& ep, int timeout_ms)
    : transport_(&transport),
      ep_(ep),
      connect_timeout_ms_(timeout_ms),
      conn_(transport.connect(ep, timeout_ms)) {}

void Client::reconnect() {
  if (conn_) conn_->close();
  conn_ = transport_->connect(ep_, connect_timeout_ms_);
  reader_ = FrameReader(1 << 20);  // discard any stale partial frame
}

CallResult Client::call(const std::string& request_json, int timeout_ms) {
  CallResult res;
  if (!conn_) return res;
  const auto start = std::chrono::steady_clock::now();
  res.write_err = write_frame(*conn_, request_json, timeout_ms);
  int wait_ms = timeout_ms;
  if (res.write_err != TxErr::kNone) {
    // A failed write does not mean no reply: a saturated server writes its
    // refusal and closes before reading, so the request write can fail
    // after the refusal is already queued here. Read it within what is
    // left of the call's budget.
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    wait_ms = static_cast<int>(std::max<long long>(timeout_ms - spent, 1));
  }
  const FrameStatus st =
      reader_.poll(*conn_, wait_ms, wait_ms, &res.payload);
  res.read_status = st;
  if (st != FrameStatus::kFrame) return res;
  res.transport_ok = true;
  res.reply_parsed = parse_reply(res.payload, &res.fields);
  return res;
}

RetryResult Client::call_retry(const std::string& request_json,
                               const RetryPolicy& policy, int timeout_ms) {
  RetryResult out;
  // xorshift64 for the jitter: deterministic per seed, no global RNG.
  std::uint64_t rng = policy.jitter_seed ? policy.jitter_seed : 1;
  const auto next_rng = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  out.last = call(request_json, timeout_ms);
  for (int retry = 0; retry < policy.max_retries && out.last.shed(); ++retry) {
    // Schedule: half-jitter the exponential step (uniform in
    // [step/2, step]) so a thundering herd of shed clients decorrelates,
    // but never sleep less than the server's own hint — retrying before
    // the bucket refills is a guaranteed wasted attempt. Cap wins last.
    const int exp_ms = policy.base_backoff_ms
                       << std::min(retry, 20);  // no overflow
    const int jittered =
        exp_ms / 2 + static_cast<int>(next_rng() %
                                      static_cast<std::uint64_t>(exp_ms / 2 +
                                                                 1));
    int backoff =
        std::max(jittered, static_cast<int>(out.last.fields.retry_after_ms));
    backoff = std::min(backoff, policy.max_backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    out.total_backoff_ms += backoff;
    // An accept-level shed closes the connection server-side; quota and
    // drain sheds keep it open. Try the existing wire first, and treat
    // reconnect-and-resend as part of the same attempt when it is gone.
    out.last = call(request_json, timeout_ms);
    if (!out.last.transport_ok) {
      reconnect();
      out.last = call(request_json, timeout_ms);
    }
    out.attempts += 1;
  }
  return out;
}

void Client::close() {
  if (conn_) conn_->close();
  conn_.reset();
}

}  // namespace limsynth::serve
