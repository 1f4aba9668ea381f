// serve: the deployed NoJoin model behind the socket front-end.
//
// Set-up fits a gini tree on one real-world dataset's NoJoin view (the
// model the paper argues for deploying), round-trips it through
// io::SaveModel / io::LoadModel and serves the loaded copy with
// serve::net::NetServer on loopback. The body is open loop: one request
// per line on a fixed schedule, first at a low rate, then at a high rate,
// then up a fixed rate ladder for the highest rate that meets the latency
// limit. Beside it one bulk client streams pipelined request lines through
// a bounded window and reads as it goes. Every answer is checked against
// the loaded model's in-process PredictAll on the same row.

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hamlet/common/parallel.h"
#include "hamlet/common/rng.h"
#include "hamlet/core/experiment.h"
#include "hamlet/core/variants.h"
#include "hamlet/data/split.h"
#include "hamlet/io/serialize.h"
#include "hamlet/ml/tree/decision_tree.h"
#include "hamlet/serve/net/net_server.h"
#include "hamlet/serve/net/socket.h"
#include "hamlet/serve/stats.h"
#include "hamlet/synth/realworld.h"
#include "measure.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = hamlet::serve::net;

// The deployed model is fixed, like a real deployment: the Flights
// simulator's own dataset and split. The seed draws the traffic, the
// sequence of holdout rows the interactive clients ask for.
constexpr const char* kDataset = "flights";
constexpr uint64_t kSplitSeed = 17;
constexpr size_t kInteractiveConns = 2;
constexpr double kLowRate = 1000.0;   // requests/s
constexpr double kHighRate = 8000.0;  // requests/s
constexpr double kLadder[] = {4000, 8000, 16000, 24000, 32000};
// Under the bulk stream the interactive p99 sits at 4-5 ms on a 4-core
// host at every rate the generator can hold, so the limit is twice that.
constexpr double kLimitMs = 10.0;
constexpr double kLateBoundMs = 5.0;  // generator p99 lateness bound
constexpr size_t kBulkWindow = 2048;  // bulk lines in flight
constexpr size_t kBulkChunk = 256;    // bulk lines per write
constexpr double kDrainTimeout = 3.0;

/// The served model and everything a request needs to be checked.
struct Deployment {
  std::unique_ptr<hamlet::ml::Classifier> model;  // the loaded copy
  std::vector<std::string> lines;   // one request line per holdout row
  std::vector<char> expected;       // '0' / '1' per holdout row
  std::vector<uint8_t> labels;      // true label per holdout row
  std::unique_ptr<net::NetServer> server;
  std::thread run_thread;
  hamlet::Result<hamlet::serve::StatsSummary> summary =
      hamlet::Status::Internal("server did not run");
  std::ostringstream server_log;
  size_t model_bytes = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  void Stop() {
    if (server) server->RequestShutdown();
    if (run_thread.joinable()) run_thread.join();
  }
};

std::unique_ptr<Deployment> Deploy(const RunOptions& options,
                                   WorkloadResult& result) {
  auto dep = std::make_unique<Deployment>();
  auto spec = hamlet::synth::RealWorldSpecByName(
      kDataset, options.minimal ? 0.1 : 1.0);
  if (!result.Check(spec.ok(), "dataset spec")) return dep;
  hamlet::StarSchema star = [&] {
    ScopedSpan span("synth.gen");
    return hamlet::synth::GenerateRealWorld(spec.value());
  }();
  auto prepared = [&] {
    ScopedSpan span("core.prepare");
    return hamlet::core::Prepare(
        star, kSplitSeed,
        hamlet::synth::RealWorldJoinOptions(spec.value()));
  }();
  if (!result.Check(prepared.ok(), "prepare")) return dep;
  const hamlet::core::PreparedData& p = prepared.value();
  const std::vector<uint32_t> features =
      hamlet::core::SelectVariant(p.data, hamlet::core::FeatureVariant::kNoJoin);
  const hamlet::SplitViews views = hamlet::MakeSplitViews(p.data, p.split, features);
  // One fit with the quick grid's middle setting, not a grid search: the
  // grid runs on the parallel pool, and where the host places the pool's
  // threads made set-up time bimodal (~19 or ~30 ms) from run to run.
  hamlet::ml::DecisionTree fitted({.minsplit = 10, .cp = 1e-3});
  {
    ScopedSpan span("ml.tree.fit");
    if (!result.Check(fitted.Fit(views.train).ok(), "fit")) return dep;
  }

  std::string bytes;
  {
    ScopedSpan span("io.save");
    std::ostringstream os;
    const hamlet::Status saved =
        hamlet::io::SaveModel(fitted, os);
    if (!result.Check(saved.ok(), "save model")) return dep;
    bytes = os.str();
  }
  dep->model_bytes = bytes.size();
  {
    ScopedSpan span("io.load");
    std::istringstream is(bytes);
    auto loaded = hamlet::io::LoadModel(is);
    if (!result.Check(loaded.ok(), "load model")) return dep;
    dep->model = std::move(loaded).value();
  }
  const std::vector<uint8_t> expected = dep->model->PredictAll(views.test);
  result.Check(expected == fitted.PredictAll(views.test),
               "loaded model predicts like the fitted one");
  for (size_t i = 0; i < views.test.num_rows(); ++i) {
    std::string line;
    for (uint32_t code : views.test.RowCodes(i)) {
      if (!line.empty()) line += ' ';
      line += std::to_string(code);
    }
    dep->lines.push_back(line + '\n');
    dep->expected.push_back(static_cast<char>('0' + expected[i]));
    dep->labels.push_back(views.test.label(i));
  }

  ScopedSpan span("serve.start");
  dep->server = std::make_unique<net::NetServer>(*dep->model,
                                                 net::NetServeConfig{});
  if (!result.Check(dep->server->Start().ok(), "server start")) {
    dep->server.reset();
    return dep;
  }
  Deployment* raw = dep.get();
  dep->run_thread = std::thread([raw] {
    raw->summary = raw->server->Run(raw->server_log);
  });
  return dep;
}

/// One scheduled interactive request. The generator thread writes `due`,
/// `sent` and `row`; the connection's receiver writes `recv` and `answer`;
/// both are read only after every client thread has been joined.
struct Slot {
  double due = 0.0;
  double sent = 0.0;
  double recv = -1.0;
  size_t row = 0;
  char answer = 0;
};

struct Phase {
  std::string name;
  double rate;
  size_t first;  ///< first slot
  size_t count;
};

/// Reads every answer of one connection. Requests go out round-robin over
/// the connections, so the k-th answer on connection c is slot k*C + c.
void ReceiveInteractive(int fd, size_t conn, std::vector<Slot>& slots,
                        std::atomic<size_t>& answered,
                        std::atomic<bool>& read_error) {
  net::LineReader reader(fd);
  std::string line;
  for (size_t k = 0;; ++k) {
    hamlet::Result<bool> more = reader.ReadLine(line);
    if (!more.ok()) {
      read_error.store(true);
      return;
    }
    if (!more.value()) return;
    const size_t index = k * kInteractiveConns + conn;
    if (index >= slots.size()) {
      read_error.store(true);
      return;
    }
    slots[index].recv = NowSeconds();
    slots[index].answer = line.size() == 1 ? line[0] : '?';
    answered.fetch_add(1, std::memory_order_release);
  }
}

/// The bulk client: pipelined writes through a bounded window of
/// unanswered lines, answers read and checked as they arrive.
class BulkStream {
 public:
  BulkStream(const Deployment& dep, net::Socket sock)
      : dep_(dep), sock_(std::move(sock)) {}
  BulkStream(const BulkStream&) = delete;
  BulkStream& operator=(const BulkStream&) = delete;
  ~BulkStream() { Finish(); }

  void Start() {
    sender_ = std::thread([this] { Send(); });
    receiver_ = std::thread([this] { Receive(); });
  }
  /// Stops sending, half-closes, and waits for the remaining answers.
  void Finish() {
    stop_.store(true);
    if (sender_.joinable()) sender_.join();
    if (receiver_.joinable()) receiver_.join();
  }
  uint64_t answered() const { return answered_.load(); }
  uint64_t sent() const { return sent_lines_; }
  uint64_t mismatched() const { return mismatched_; }
  uint64_t correct_labels() const { return correct_labels_; }
  bool failed() const { return send_error_ || read_error_; }

 private:
  void Send() {
    const size_t rows = dep_.lines.size();
    std::string chunk;
    while (!stop_.load()) {
      if (sent_lines_ - answered_.load(std::memory_order_acquire) + kBulkChunk >
          kBulkWindow) {
        // A full window holds ~40 ms of work; waking every 1 ms keeps it
        // from draining without a wake-up per answer.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      chunk.clear();
      for (size_t i = 0; i < kBulkChunk; ++i) {
        chunk += dep_.lines[(sent_lines_ + i) % rows];
      }
      if (!net::SendAll(sock_.fd(), chunk.data(), chunk.size()).ok()) {
        send_error_ = true;
        break;
      }
      sent_lines_ += kBulkChunk;
    }
    sock_.ShutdownWrite();
  }

  void Receive() {
    const size_t rows = dep_.lines.size();
    net::LineReader reader(sock_.fd());
    std::string line;
    for (uint64_t b = 0;; ++b) {
      hamlet::Result<bool> more = reader.ReadLine(line);
      if (!more.ok()) {
        read_error_ = true;
        return;
      }
      if (!more.value()) return;
      const size_t row = b % rows;
      if (line.size() != 1 || line[0] != dep_.expected[row]) ++mismatched_;
      if (line.size() == 1 && line[0] - '0' == dep_.labels[row]) {
        ++correct_labels_;
      }
      answered_.fetch_add(1, std::memory_order_release);
    }
  }

  const Deployment& dep_;
  net::Socket sock_;
  std::thread sender_;
  std::thread receiver_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> answered_{0};
  uint64_t sent_lines_ = 0;     // sender thread only until joined
  bool send_error_ = false;     // sender thread only until joined
  uint64_t mismatched_ = 0;     // receiver thread only until joined
  uint64_t correct_labels_ = 0; // receiver thread only until joined
  bool read_error_ = false;     // receiver thread only until joined
};

/// Span and trace id of interactive request g, above every id the tracer
/// hands out.
uint64_t RequestId(size_t g) { return (uint64_t{1} << 62) + g; }

void SleepUntil(double t) {
  const double wait = t - NowSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

}  // namespace

WorkloadResult RunServe(const RunOptions& options) {
  WorkloadResult result;

  // Every set-up repeat deploys its own server; all but the last stop
  // once the repeats are timed.
  std::vector<std::unique_ptr<Deployment>> deployments;
  const std::vector<double> setup_seconds = TimeSetUp(options, [&] {
    const LibraryCounters counters0 = LibraryCounters::Now();
    deployments.push_back(Deploy(options, result));
    result.counters = (LibraryCounters::Now() - counters0).ToMap();
  });
  std::unique_ptr<Deployment> dep = std::move(deployments.back());
  deployments.clear();
  result.counters["io.model_bytes"] = dep->model_bytes;
  if (!dep->server) {
    AddSetupAndMemory(setup_seconds, result);
    return result;
  }
  const uint16_t port = dep->server->port();

  // The schedule: phase lengths scale with the run length.
  const double seconds = options.minimal ? 1.0 : options.seconds;
  std::vector<Phase> phases;
  size_t total = 0;
  auto add_phase = [&](std::string name, double rate, double length) {
    const size_t count = static_cast<size_t>(rate * length);
    phases.push_back(Phase{std::move(name), rate, total, count});
    total += count;
  };
  const double scale = options.minimal ? 0.1 : 1.0;
  if (options.trace) add_phase("untraced-low", kLowRate * scale, 0.3 * seconds);
  add_phase("low", kLowRate * scale, 0.3 * seconds);
  add_phase("high", kHighRate * scale, 0.2 * seconds);
  const size_t ladder_rungs = std::size(kLadder);
  for (double rate : kLadder) {
    add_phase("ladder-" + std::to_string(static_cast<int>(rate * scale)),
              rate * scale, 0.5 * seconds / static_cast<double>(ladder_rungs));
  }
  std::vector<Slot> slots(total);
  hamlet::Rng traffic(DeriveSeed(options.seed, {30}));
  for (Slot& slot : slots) slot.row = traffic.UniformInt(dep->lines.size());

  // Connections: the interactive ones and the bulk stream.
  std::vector<net::Socket> conns;
  for (size_t c = 0; c < kInteractiveConns; ++c) {
    auto sock = net::ConnectTcp("127.0.0.1", port);
    if (!result.Check(sock.ok(), "connect interactive client")) {
      return result;
    }
    conns.push_back(std::move(sock).value());
  }
  auto bulk_sock = net::ConnectTcp("127.0.0.1", port);
  if (!result.Check(bulk_sock.ok(), "connect bulk client")) return result;

  const double cpu0 = ProcessCpuSeconds();
  const double body_start = NowSeconds();
  BulkStream bulk(*dep, std::move(bulk_sock).value());
  bulk.Start();
  std::atomic<size_t> answered{0};
  std::atomic<bool> read_error{false};
  std::vector<std::thread> receivers;
  for (size_t c = 0; c < kInteractiveConns; ++c) {
    receivers.emplace_back(ReceiveInteractive, conns[c].fd(), c,
                           std::ref(slots), std::ref(answered),
                           std::ref(read_error));
  }

  // The generator: this thread sends each line when it is due, round-robin
  // over the interactive connections, and drains between phases.
  bool send_failed = false;
  for (const Phase& phase : phases) {
    tracer::SetEnabled(options.trace && phase.name != "untraced-low");
    const double start = NowSeconds() + 0.01;
    for (size_t i = 0; i < phase.count && !send_failed; ++i) {
      const size_t g = phase.first + i;
      Slot& slot = slots[g];
      slot.due = start + static_cast<double>(i) / phase.rate;
      SleepUntil(slot.due);
      ScopedSpan span("bench.send", RequestId(g), RequestId(g));
      const std::string& line = dep->lines[slot.row];
      slot.sent = NowSeconds();
      send_failed = !net::SendAll(conns[g % kInteractiveConns].fd(),
                                  line.data(), line.size())
                         .ok();
    }
    const double deadline = NowSeconds() + kDrainTimeout;
    while (answered.load(std::memory_order_acquire) <
               phase.first + phase.count &&
           NowSeconds() < deadline && !read_error.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  tracer::SetEnabled(false);
  const double body_end = NowSeconds();
  const uint64_t bulk_answered = bulk.answered();

  for (net::Socket& sock : conns) sock.ShutdownWrite();
  for (std::thread& t : receivers) t.join();
  bulk.Finish();
  const double cpu = ProcessCpuSeconds() - cpu0;
  dep->Stop();
  result.Check(dep->summary.ok(), "server run");
  result.Check(!send_failed && !read_error.load(), "interactive connections");
  result.Check(!bulk.failed(), "bulk connection");

  // Every interactive answer must equal the in-process prediction.
  if (options.corrupt_response && total > 0) {
    char& a = slots[total / 2].answer;
    a = a == '0' ? '1' : '0';
  }
  uint64_t label_hits = bulk.correct_labels();
  uint64_t interactive_ok = 0;
  for (Slot& slot : slots) {
    const bool ok = slot.recv >= 0 && slot.answer == dep->expected[slot.row];
    if (!result.Check(ok, "interactive answer matches PredictAll")) {
      slot.recv = -1.0;
    }
    interactive_ok += ok ? 1 : 0;
    if (ok && slot.answer - '0' == dep->labels[slot.row]) ++label_hits;
  }
  result.attempted += bulk.answered();
  result.failed += bulk.mismatched();
  result.Check(bulk.mismatched() == 0, "bulk answers match PredictAll");
  result.Check(bulk.answered() == bulk.sent(), "every bulk line answered");

  // Per-phase accounting from the due times.
  double max_rps = 0.0;
  double late_p99 = 0.0;
  double untraced_p50_ms = 0.0;
  double traced_p50_ms = 0.0;
  size_t invalid = 0;
  bool ladder_ok = true;
  std::vector<Span> spans;
  for (const Phase& phase : phases) {
    std::vector<PhaseSample> samples;
    for (size_t g = phase.first; g < phase.first + phase.count; ++g) {
      const Slot& s = slots[g];
      samples.push_back(PhaseSample{s.due, s.sent, s.recv, s.recv >= 0});
      if (s.recv >= 0) {
        spans.push_back(Span{"serve.request", RequestId(g), 0, RequestId(g),
                             s.due, s.recv});
      }
    }
    const PhaseSummary sum = SummarizePhase(samples, kLateBoundMs, kLimitMs);
    late_p99 = std::max(late_p99, sum.late_p99_ms);
    if (!sum.valid) {
      ++invalid;
      result.notes.push_back("phase " + phase.name +
                             " invalid: generator p99 lateness " +
                             std::to_string(sum.late_p99_ms) + " ms");
    }
    result.notes.push_back(
        "phase " + phase.name + ": rate " + std::to_string(phase.rate) +
        "/s sent " + std::to_string(sum.sent) + " ok " +
        std::to_string(sum.ok) + " failed " + std::to_string(sum.failed) +
        " p50 " + std::to_string(sum.p50_ms) + " ms p99 " +
        std::to_string(sum.p99_ms) + " ms (" + std::to_string(sum.beyond_p99) +
        " beyond), median window p99 " + std::to_string(sum.window_p99_ms) +
        " ms, late p99 " + std::to_string(sum.late_p99_ms) + " ms");
    if (phase.name == "low" || phase.name == "high") {
      result.Set("serve_p50_ms." + phase.name, sum.p50_ms, "ms");
      result.Set("serve_p99_ms." + phase.name, sum.p99_ms, "ms");
      result.Set("serve.sent." + phase.name, sum.sent, "count");
      result.Set("serve.ok." + phase.name, sum.ok, "count");
      result.Set("serve.failed." + phase.name, sum.failed, "count");
      if (phase.name == "low") {
        result.Set("latency_p50_ms", sum.p50_ms, "ms");
        result.Set("latency_tail_ms", sum.window_p99_ms, "ms");
      }
    }
    if (phase.name.rfind("ladder-", 0) == 0) {
      ladder_ok = ladder_ok && sum.meets_limit && sum.valid;
      if (ladder_ok) max_rps = phase.rate;
    }
    if (phase.name == "untraced-low") untraced_p50_ms = sum.p50_ms;
    if (phase.name == "low") traced_p50_ms = sum.p50_ms;
  }

  // Ladder totals, the bulk stream and the server's own accounting.
  size_t ladder_sent = 0;
  size_t ladder_ok_count = 0;
  for (const Phase& phase : phases) {
    if (phase.name.rfind("ladder-", 0) != 0) continue;
    ladder_sent += phase.count;
    for (size_t g = phase.first; g < phase.first + phase.count; ++g) {
      ladder_ok_count += slots[g].recv >= 0 ? 1 : 0;
    }
  }
  const double wall = body_end - body_start;
  const double ops = static_cast<double>(bulk_answered + interactive_ok);
  AddSetupAndMemory(setup_seconds, result);
  result.Set("ops_per_s", ops / wall, "1/s");
  result.Set("cpu_ms_per_op", 1e3 * cpu / ops, "ms");
  result.Set("mean_test_accuracy",
             static_cast<double>(label_hits) /
                 static_cast<double>(interactive_ok + bulk.answered()),
             "ratio");
  result.Set("parallel.cpu_util",
             cpu / (wall * static_cast<double>(
                               hamlet::parallel::ConfiguredThreads())),
             "ratio");
  result.Set("serve_max_rps", max_rps, "req/s");
  result.Set("serve_bulk_rows_per_s", static_cast<double>(bulk_answered) / wall,
             "rows/s");
  result.Set("serve.sent.ladder", ladder_sent, "count");
  result.Set("serve.ok.ladder", ladder_ok_count, "count");
  result.Set("serve.failed.ladder", ladder_sent - ladder_ok_count, "count");
  result.Set("serve.sent.bulk", bulk.sent(), "count");
  result.Set("serve.ok.bulk", bulk.answered() - bulk.mismatched(), "count");
  result.Set("serve.failed.bulk",
             bulk.sent() - bulk.answered() + bulk.mismatched(), "count");
  result.Set("serve.gen_late_p99_ms", late_p99, "ms");
  result.Set("serve.invalid_phases", invalid, "count");
  result.Set("io.model_bytes", dep->model_bytes, "bytes");
  if (dep->summary.ok()) {
    const hamlet::serve::StatsSummary& s = dep->summary.value();
    result.Set("serve.model_s", s.model_seconds, "s");
    result.Set("serve.model_share", s.model_seconds / wall, "ratio");
    result.Set("serve.batches", s.batches, "count");
    result.Set("serve.rows_per_batch",
               s.batches > 0 ? static_cast<double>(s.rows) / s.batches : 0.0,
               "rows");
    result.Set("serve.batch_p99_us", s.p99_us, "us");
  }
  if (options.trace) {
    for (Span& s : tracer::Collect()) spans.push_back(s);
    AddSpanMetrics(spans, body_start, body_end, result);
    result.Set("trace.overhead_s", 1e-3 * (traced_p50_ms - untraced_p50_ms),
               "s");
    result.Set("trace.overhead_share",
               (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms, "ratio");
  }
  return result;
}

}  // namespace perfbench
