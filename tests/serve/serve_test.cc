// Agreement-as-a-service contract (src/serve, docs/serving.md): the wire
// protocol is strict in both directions, and CheckService multiplexes
// concurrent check/explore/fuzz requests onto a shared pool such that
//   * N concurrent clients asking for the same task get byte-identical
//     RunReports (the determinism contract end to end),
//   * a cache hit replays the fresh run's bytes exactly (cached=true is the
//     only difference),
//   * per-request cancel and deadline interrupt THEIR request (exit 4,
//     resumable) without disturbing a neighbor on the same pool,
//   * heartbeat streams per request validate and stay separated by the
//     request-id nonce,
//   * shutdown fails queued-not-started requests instead of dropping them.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/report.h"
#include "serve/protocol.h"

namespace lbsa::serve {
namespace {

using obs::parse_json;

// Thread-safe response collector: one per test, shared by every request's
// sink. Final lines (report/error) complete a request; heartbeats stack.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ServeResponse> finals;
  std::vector<ServeResponse> heartbeats;

  CheckService::ResponseSink sink() {
    return [this](std::string_view line) {
      auto parsed = parse_response(line);
      ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string() << "\n"
                                  << line;
      std::lock_guard<std::mutex> lock(mu);
      if (parsed.value().type == "heartbeat") {
        heartbeats.push_back(std::move(parsed).value());
      } else {
        finals.push_back(std::move(parsed).value());
        cv.notify_all();
      }
    };
  }

  // Blocks until `n` requests have their final line. Generous bound; a hang
  // here means the service lost a request.
  std::vector<ServeResponse> wait_finals(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::minutes(5),
                            [&] { return finals.size() >= n; }))
        << "only " << finals.size() << "/" << n << " requests answered";
    return finals;
  }

  const ServeResponse* final_for(const std::vector<ServeResponse>& all,
                                 const std::string& id) {
    for (const ServeResponse& r : all) {
      if (r.request_id == id) return &r;
    }
    return nullptr;
  }
};

ServeRequest check_request(const std::string& id, const std::string& task) {
  ServeRequest r;
  r.op = "check";
  r.id = id;
  r.task = task;
  return r;
}

TEST(Protocol, ParsesFullRequestAndAppliesDefaults) {
  auto parsed = parse_request(
      R"({"serve_version":1,"op":"explore","id":"r1","task":"dac4-sym",)"
      R"("deadline_ms":5000,"heartbeat_ms":100,"threads":4,)"
      R"("engine":"parallel","reduction":"symmetry","max_nodes":100000,)"
      R"("max_levels":3,"allow_truncation":true})");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const ServeRequest& r = parsed.value();
  EXPECT_EQ(r.op, "explore");
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.task, "dac4-sym");
  EXPECT_EQ(r.deadline_ms, 5000u);
  EXPECT_EQ(r.heartbeat_ms, 100u);
  EXPECT_EQ(r.threads, 4);
  EXPECT_EQ(r.engine, "parallel");
  EXPECT_EQ(r.reduction, "symmetry");
  EXPECT_EQ(r.max_nodes, 100000u);
  EXPECT_EQ(r.max_levels, 3u);
  EXPECT_TRUE(r.allow_truncation);

  auto minimal = parse_request(
      R"({"serve_version":1,"op":"check","id":"r2","task":"dac3"})");
  ASSERT_TRUE(minimal.is_ok()) << minimal.status().to_string();
  EXPECT_EQ(minimal.value().threads, 1) << "server default is single-thread";
  EXPECT_EQ(minimal.value().engine, "auto");
  EXPECT_EQ(minimal.value().max_nodes, 0u) << "0 = engine default budget";
  EXPECT_EQ(minimal.value().deadline_ms, 0u) << "0 = no deadline";
}

TEST(Protocol, RejectsMalformedAndMisdirectedRequests) {
  const char* bad[] = {
      // not JSON at all
      "hello",
      // missing serve_version
      R"({"op":"check","id":"x","task":"dac3"})",
      // wrong serve_version
      R"({"serve_version":2,"op":"check","id":"x","task":"dac3"})",
      // unknown op
      R"({"serve_version":1,"op":"verify","id":"x","task":"dac3"})",
      // missing id
      R"({"serve_version":1,"op":"check","task":"dac3"})",
      // missing task on a workload op
      R"({"serve_version":1,"op":"explore","id":"x"})",
      // cancel without target
      R"({"serve_version":1,"op":"cancel","id":"x"})",
      // unknown field: typos must not silently fall back to defaults
      R"({"serve_version":1,"op":"check","id":"x","task":"dac3","thread":2})",
      // op-inapplicable knob: max_levels is explore-only
      R"({"serve_version":1,"op":"check","id":"x","task":"dac3",)"
      R"("max_levels":2})",
      // op-inapplicable knob: fuzz knob on explore
      R"({"serve_version":1,"op":"explore","id":"x","task":"dac3",)"
      R"("runs":50})",
      // wrong type
      R"({"serve_version":1,"op":"check","id":"x","task":"dac3",)"
      R"("threads":"two"})",
  };
  for (const char* line : bad) {
    SCOPED_TRACE(line);
    auto parsed = parse_request(line);
    EXPECT_FALSE(parsed.is_ok());
    if (!parsed.is_ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(Protocol, ResponseBuildersRoundTripExactBytes) {
  // Payload bytes with JSON-hostile characters must survive the
  // escape/unescape round trip exactly — clients digest-compare them.
  const std::string payload =
      R"({"seq":0,"run_id":"abc","note":"quote \" backslash \\ tab \t"})";

  auto hb = parse_response(heartbeat_response("r1", payload));
  ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
  EXPECT_EQ(hb.value().type, "heartbeat");
  EXPECT_EQ(hb.value().request_id, "r1");
  EXPECT_EQ(hb.value().data, payload);

  auto rep = parse_response(report_response("r2", 4, true, "human text",
                                            payload));
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_EQ(rep.value().type, "report");
  EXPECT_EQ(rep.value().exit_code, 4);
  EXPECT_TRUE(rep.value().cached);
  EXPECT_EQ(rep.value().human, "human text");
  EXPECT_EQ(rep.value().data, payload);

  auto err = parse_response(
      error_response("r3", invalid_argument("bad knob: max_levels")));
  ASSERT_TRUE(err.is_ok()) << err.status().to_string();
  EXPECT_EQ(err.value().type, "error");
  EXPECT_EQ(err.value().status_code, "INVALID_ARGUMENT");
  EXPECT_NE(err.value().message.find("max_levels"), std::string::npos);

  auto ack = parse_response(cancel_ack_response("r4", "victim", true));
  ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
  EXPECT_EQ(ack.value().type, "cancel_ack");
  EXPECT_EQ(ack.value().target, "victim");
  EXPECT_TRUE(ack.value().found);

  auto st = parse_response(status_response("r5", R"({"requests_total":3})"));
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st.value().type, "status");
  EXPECT_EQ(st.value().data, R"({"requests_total":3})");
}

TEST(Service, ConcurrentIdenticalRequestsAnswerByteIdentical) {
  ServiceOptions options;
  options.workers = 4;
  options.cache_capacity = 0;  // every request computes — no cache assists
  CheckService service(options);
  Collector collector;

  constexpr int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    service.submit(check_request("client-" + std::to_string(i), "dac3-sym"),
                   collector.sink());
  }
  const auto finals = collector.wait_finals(kClients);
  ASSERT_EQ(finals.size(), static_cast<std::size_t>(kClients));

  const ServeResponse& golden = finals[0];
  EXPECT_EQ(golden.type, "report");
  EXPECT_EQ(golden.exit_code, 0);
  const Status valid = obs::validate_run_report_json(golden.data);
  EXPECT_TRUE(valid.is_ok()) << valid.to_string();
  for (const ServeResponse& r : finals) {
    SCOPED_TRACE(r.request_id);
    EXPECT_EQ(r.type, "report");
    EXPECT_EQ(r.exit_code, golden.exit_code);
    EXPECT_FALSE(r.cached);
    EXPECT_EQ(r.human, golden.human) << "human summaries must not diverge";
    EXPECT_EQ(r.data, golden.data) << "RunReport bytes must not diverge";
  }
}

TEST(Service, CacheHitReplaysFreshBytesExactly) {
  ServiceOptions options;
  options.workers = 1;
  CheckService service(options);
  Collector collector;

  service.submit(check_request("fresh", "dac3"), collector.sink());
  collector.wait_finals(1);
  service.submit(check_request("replay", "dac3"), collector.sink());
  const auto finals = collector.wait_finals(2);

  const ServeResponse* fresh = collector.final_for(finals, "fresh");
  const ServeResponse* replay = collector.final_for(finals, "replay");
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(fresh->type, "report");
  EXPECT_FALSE(fresh->cached);
  EXPECT_TRUE(replay->cached) << "identical request must hit the cache";
  EXPECT_EQ(replay->exit_code, fresh->exit_code);
  EXPECT_EQ(replay->human, fresh->human);
  EXPECT_EQ(replay->data, fresh->data) << "cache hit must be byte-identical";

  // A different shape (another reduction) is a different cache key.
  ServeRequest other = check_request("other", "dac3");
  other.reduction = "symmetry";
  service.submit(std::move(other), collector.sink());
  const auto all = collector.wait_finals(3);
  const ServeResponse* third = collector.final_for(all, "other");
  ASSERT_NE(third, nullptr);
  EXPECT_FALSE(third->cached);

  auto stats = parse_json(service.stats_json());
  ASSERT_TRUE(stats.is_ok()) << service.stats_json();
  const auto* cache = stats.value().find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->int_value, 1);
  EXPECT_EQ(cache->find("misses")->int_value, 2);
}

TEST(Service, CancelInterruptsTargetWithoutDisturbingNeighbor) {
  ServiceOptions options;
  options.workers = 2;
  CheckService service(options);
  Collector victim_side;
  Collector neighbor_side;

  // The victim: a long exhaustive exploration, streaming heartbeats so the
  // test knows when it is genuinely in flight.
  ServeRequest victim;
  victim.op = "explore";
  victim.id = "victim";
  victim.task = "dac5";
  victim.engine = "serial";
  victim.heartbeat_ms = 1;
  service.submit(std::move(victim), victim_side.sink());

  // Wait for the first heartbeat — proof the workload started.
  {
    std::unique_lock<std::mutex> lock(victim_side.mu);
    // Heartbeats don't signal the cv; poll under the lock.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    while (victim_side.heartbeats.empty() && victim_side.finals.empty()) {
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      lock.lock();
    }
    ASSERT_TRUE(victim_side.finals.empty())
        << "victim finished before the test could cancel it";
  }

  // The neighbor shares the pool and must be untouched by the cancel.
  service.submit(check_request("neighbor", "dac3-sym"),
                 neighbor_side.sink());

  ServeRequest cancel;
  cancel.op = "cancel";
  cancel.id = "canceller";
  cancel.target = "victim";
  Collector cancel_side;
  service.submit(std::move(cancel), cancel_side.sink());
  const auto acks = cancel_side.wait_finals(1);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].type, "cancel_ack");
  EXPECT_TRUE(acks[0].found) << "victim was active; cancel must find it";

  const auto victim_finals = victim_side.wait_finals(1);
  ASSERT_EQ(victim_finals.size(), 1u);
  EXPECT_EQ(victim_finals[0].type, "report");
  EXPECT_EQ(victim_finals[0].exit_code, 4)
      << "cancelled run reports interrupted-resumable, not success";
  const Status valid = obs::validate_run_report_json(victim_finals[0].data);
  EXPECT_TRUE(valid.is_ok()) << valid.to_string();

  // The victim's heartbeat stream validates on its own: per-request run_id
  // (the id nonce) kept it separate from every other stream.
  std::string stream;
  {
    std::lock_guard<std::mutex> lock(victim_side.mu);
    for (const ServeResponse& hb : victim_side.heartbeats) {
      ASSERT_EQ(hb.request_id, "victim");
      stream += hb.data;
      stream += '\n';
    }
  }
  const Status hb_valid = obs::validate_heartbeat_stream(stream);
  EXPECT_TRUE(hb_valid.is_ok()) << hb_valid.to_string();

  const auto neighbor_finals = neighbor_side.wait_finals(1);
  ASSERT_EQ(neighbor_finals.size(), 1u);
  EXPECT_EQ(neighbor_finals[0].type, "report");
  EXPECT_EQ(neighbor_finals[0].exit_code, 0)
      << "neighbor must complete unaffected by the cancel";
}

TEST(Service, DeadlineBoundsARequest) {
  ServiceOptions options;
  options.workers = 1;
  CheckService service(options);
  Collector collector;

  ServeRequest slow;
  slow.op = "explore";
  slow.id = "slow";
  slow.task = "dac5";
  slow.engine = "serial";
  slow.deadline_ms = 1;  // expires almost immediately after dequeue
  service.submit(std::move(slow), collector.sink());

  const auto finals = collector.wait_finals(1);
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(finals[0].type, "report");
  EXPECT_EQ(finals[0].exit_code, 4)
      << "deadline expiry is interrupted-resumable";
  const Status valid = obs::validate_run_report_json(finals[0].data);
  EXPECT_TRUE(valid.is_ok()) << valid.to_string();

  // The pool is healthy afterwards: a fresh request completes.
  service.submit(check_request("after", "dac3"), collector.sink());
  const auto all = collector.wait_finals(2);
  const ServeResponse* after = collector.final_for(all, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->exit_code, 0);
}

TEST(Service, InterruptedCheckAnswersExit4AndIsNotCached) {
  // The cache key omits the deadline, so a deadline-tripped check must not
  // be stored: its verdict covers only the explored prefix.
  ServiceOptions options;
  options.workers = 1;
  CheckService service(options);
  Collector collector;

  ServeRequest first = check_request("first", "dac5");
  first.engine = "serial";
  first.deadline_ms = 1;  // expires almost immediately after dequeue
  ServeRequest second = first;
  second.id = "second";
  service.submit(std::move(first), collector.sink());
  collector.wait_finals(1);
  service.submit(std::move(second), collector.sink());
  const auto finals = collector.wait_finals(2);
  for (const char* id : {"first", "second"}) {
    SCOPED_TRACE(id);
    const ServeResponse* r = collector.final_for(finals, id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->type, "report");
    EXPECT_EQ(r->exit_code, 4) << "an interrupted check is not a verdict\n"
                               << r->human;
    EXPECT_FALSE(r->cached) << "an interrupted check must never be replayed";
    const Status valid = obs::validate_run_report_json(r->data);
    EXPECT_TRUE(valid.is_ok()) << valid.to_string();
  }

  auto stats = parse_json(service.stats_json());
  ASSERT_TRUE(stats.is_ok()) << service.stats_json();
  const auto* cache = stats.value().find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->int_value, 0);
  EXPECT_EQ(cache->find("misses")->int_value, 2);
  EXPECT_EQ(cache->find("entries")->int_value, 0);
}

TEST(Service, RejectsBadWorkloadsWithTypedErrors) {
  ServiceOptions options;
  options.workers = 1;
  CheckService service(options);
  Collector collector;

  // Unknown task.
  service.submit(check_request("no-such", "not-a-task"), collector.sink());
  // Blind fuzz with a checkpoint_path: the lifecycle-knob validation
  // (validate_fuzz_options) must surface INVALID_ARGUMENT naming the knob
  // instead of silently ignoring it.
  ServeRequest blind;
  blind.op = "fuzz";
  blind.id = "blind-ckpt";
  blind.task = "dac3";
  blind.coverage = false;
  blind.checkpoint_path = "/tmp/should-not-exist.ckpt";
  service.submit(std::move(blind), collector.sink());

  const auto finals = collector.wait_finals(2);
  const ServeResponse* unknown = collector.final_for(finals, "no-such");
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->type, "error");
  const ServeResponse* ckpt = collector.final_for(finals, "blind-ckpt");
  ASSERT_NE(ckpt, nullptr);
  EXPECT_EQ(ckpt->type, "error");
  EXPECT_EQ(ckpt->status_code, "INVALID_ARGUMENT");
  EXPECT_NE(ckpt->message.find("checkpoint_path"), std::string::npos)
      << ckpt->message;
}

TEST(Service, StatusOpAndStatsShape) {
  ServiceOptions options;
  options.workers = 1;
  CheckService service(options);
  Collector collector;

  service.submit(check_request("warm", "dac3"), collector.sink());
  collector.wait_finals(1);

  ServeRequest status;
  status.op = "status";
  status.id = "stat";
  service.submit(std::move(status), collector.sink());
  const auto finals = collector.wait_finals(2);
  const ServeResponse* stat = collector.final_for(finals, "stat");
  ASSERT_NE(stat, nullptr);
  ASSERT_EQ(stat->type, "status");

  auto parsed = parse_json(stat->data);
  ASSERT_TRUE(parsed.is_ok()) << stat->data;
  const auto& stats = parsed.value();
  EXPECT_EQ(stats.find("requests_total")->int_value, 2);
  ASSERT_NE(stats.find("by_op"), nullptr);
  EXPECT_EQ(stats.find("by_op")->find("check")->int_value, 1);
  ASSERT_NE(stats.find("cache"), nullptr);
  ASSERT_NE(stats.find("latency_us"), nullptr);
  EXPECT_EQ(stats.find("latency_us")->find("count")->int_value, 1);
  EXPECT_GE(stats.find("latency_us")->find("p99")->int_value,
            stats.find("latency_us")->find("p50")->int_value);
}

TEST(Service, ShutdownFailsQueuedRequestsAndAnswersInFlight) {
  ServiceOptions options;
  options.workers = 1;  // one in flight, the rest queued
  auto service = std::make_unique<CheckService>(options);
  Collector collector;

  ServeRequest slow;
  slow.op = "explore";
  slow.id = "in-flight";
  slow.task = "dac5";
  slow.engine = "serial";
  slow.heartbeat_ms = 1;
  service->submit(std::move(slow), collector.sink());
  // Wait until it is genuinely running so the queued ones stay queued.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    while (true) {
      {
        std::lock_guard<std::mutex> lock(collector.mu);
        if (!collector.heartbeats.empty()) break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  service->submit(check_request("queued-1", "dac3"), collector.sink());
  service->submit(check_request("queued-2", "dac4-sym"), collector.sink());

  service->shutdown();
  const auto finals = collector.wait_finals(3);
  ASSERT_EQ(finals.size(), 3u);

  const ServeResponse* in_flight = collector.final_for(finals, "in-flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->type, "report")
      << "in-flight work is answered, not dropped";
  for (const char* id : {"queued-1", "queued-2"}) {
    const ServeResponse* r = collector.final_for(finals, id);
    ASSERT_NE(r, nullptr) << id;
    EXPECT_EQ(r->type, "error") << id;
    EXPECT_EQ(r->status_code, "FAILED_PRECONDITION") << id;
  }
  service.reset();  // double-shutdown via the destructor is fine
}

}  // namespace
}  // namespace lbsa::serve
