// Benchmark harness for `vsim serve`. run.py starts the processes and
// calls this binary in one of three modes:
//
//   probe   waits for a server's port file, sends one k-NN query and
//           prints the CLOCK_MONOTONIC time of the answer (the end of
//           the set-up interval).
//   load    the closed-loop load generator: one net::Client connection
//           with a fixed window of pipelined stored-id k-NN queries,
//           seeded passes over the corpus, every answer checked, a
//           brute-force check of Definition 6 on a seeded sample, and
//           the server's CPU and peak memory read under /proc.
//   replay  the traced run: the same query sequence in process, with
//           spans around the calls into each layer's public functions.
//
// Every mode prints one JSON object as its last line of stdout.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "vsim/core/query_engine.h"
#include "vsim/core/similarity.h"
#include "vsim/distance/hungarian.h"
#include "vsim/distance/min_matching.h"
#include "vsim/features/cover_sequence.h"
#include "vsim/geometry/mesh_io.h"
#include "vsim/index/mtree.h"
#include "vsim/index/multistep.h"
#include "vsim/index/xtree.h"
#include "vsim/kernels/kernels.h"
#include "vsim/net/client.h"
#include "vsim/net/protocol.h"
#include "vsim/service/db_snapshot.h"
#include "vsim/service/query_service.h"
#include "vsim/storage/vector_set_store.h"
#include "vsim/voxel/voxelizer.h"

using namespace vsim;

namespace {

// ---------------------------------------------------------------- utils

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(1);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MonotonicSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("bad argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  long Int(const std::string& key) const { return std::stol(Str(key)); }
  double Num(const std::string& key) const { return std::stod(Str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

// A fixed generator (splitmix64), so the query order depends on the
// seed alone and never on the library's own random number code.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Pass `pass` of the query sequence: a seeded permutation of all ids.
std::vector<int> QueryPass(uint64_t seed, uint64_t pass, int n) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  uint64_t state = Mix(seed ^ Mix(pass + 1));
  for (size_t i = ids.size(); i > 1; --i) {
    state = Mix(state);
    std::swap(ids[i - 1], ids[state % i]);
  }
  return ids;
}

// The ids whose answers the brute-force check recomputes.
std::vector<int> SampleIds(uint64_t seed, int n, int count) {
  std::vector<int> ids = QueryPass(seed ^ 0x5a5a5a5a5a5a5a5aull, 0, n);
  ids.resize(static_cast<size_t>(std::min(count, n)));
  return ids;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Emits one flat JSON object: numbers with full precision, booleans and
// strings as given.
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Add(key, std::isfinite(value) ? buf : "null");
  }
  void Int(const std::string& key, long long value) {
    Add(key, std::to_string(value));
  }
  void Bool(const std::string& key, bool value) {
    Add(key, value ? "true" : "false");
  }
  void Str(const std::string& key, const std::string& value) {
    Add(key, "\"" + value + "\"");
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

ServiceRequest KnnRequest(int id, int k) {
  ServiceRequest request;
  request.kind = QueryKind::kKnn;
  request.strategy = QueryStrategy::kVectorSetFilter;
  request.object_id = id;
  request.options.k = k;
  return request;
}

// ------------------------------------------------- independent distance

// Definition 6 by enumeration: the minimal matching distance between two
// sets of at most kMaxEnumerated vectors, with Euclidean ground distance
// and the unmatched weight ||x||, computed from every assignment of the
// larger set's vectors to the smaller set's vectors or to "unmatched".
// Written without the library's distance code so that it checks it.
constexpr size_t kMaxEnumerated = 8;

double Norm(const FeatureVector& x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum);
}

double Euclid(const FeatureVector& x, const FeatureVector& y) {
  double sum = 0.0;
  for (size_t d = 0; d < x.size(); ++d) sum += (x[d] - y[d]) * (x[d] - y[d]);
  return std::sqrt(sum);
}

double EnumeratedDistance(const VectorSet& x, const VectorSet& y) {
  const size_t m = std::max(x.size(), y.size());
  if (m == 0) return 0.0;
  if (m > kMaxEnumerated) return std::numeric_limits<double>::quiet_NaN();
  // cost[i][j]: x_i with y_j; a missing partner (index past the smaller
  // set) leaves the other vector unmatched at its weight.
  double cost[kMaxEnumerated][kMaxEnumerated];
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i < x.size() && j < y.size()) {
        cost[i][j] = Euclid(x.vectors[i], y.vectors[j]);
      } else if (i < x.size()) {
        cost[i][j] = Norm(x.vectors[i]);
      } else {
        cost[i][j] = Norm(y.vectors[j]);
      }
    }
  }
  int perm[kMaxEnumerated];
  for (size_t i = 0; i < m; ++i) perm[i] = static_cast<int>(i);
  double best = std::numeric_limits<double>::infinity();
  do {
    double sum = 0.0;
    for (size_t i = 0; i < m; ++i) sum += cost[i][perm[i]];
    best = std::min(best, sum);
  } while (std::next_permutation(perm, perm + m));
  return best;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b)) +
                                 1e-12;
}

struct SampledAnswer {
  int query = -1;
  std::vector<Neighbor> neighbors;
};

// Checks each sampled answer against the brute-force distances to every
// stored object: the k reported distances must be the k smallest, and
// each returned id's distance must be what the server reported for it.
// Distances, not ids, are compared, because ties are common.
int BruteForceFailures(const CadDatabase& db,
                       const std::vector<SampledAnswer>& answers, int k) {
  int failures = 0;
  for (const SampledAnswer& answer : answers) {
    const VectorSet& q = db.object(answer.query).vector_set;
    std::vector<double> all(db.size());
    for (size_t id = 0; id < db.size(); ++id) {
      all[id] = EnumeratedDistance(q, db.object(static_cast<int>(id)).vector_set);
    }
    bool ok = static_cast<int>(answer.neighbors.size()) == k;
    std::vector<double> sorted = all;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; ok && i < k; ++i) {
      const Neighbor& nb = answer.neighbors[static_cast<size_t>(i)];
      ok = Close(nb.distance, sorted[static_cast<size_t>(i)]) &&
           nb.id >= 0 && static_cast<size_t>(nb.id) < db.size() &&
           Close(nb.distance, all[static_cast<size_t>(nb.id)]);
    }
    if (!ok) {
      std::fprintf(stderr, "brute-force mismatch on query %d\n", answer.query);
      ++failures;
    }
  }
  return failures;
}

// ------------------------------------------------------------ /proc

double ProcCpuSeconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) Die("cannot read server /proc stat");
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcPeakRssMb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  Die("cannot read server VmHWM");
}

// Sum of every sample of `name` (all label sets) in a text exposition.
double Scraped(const std::string& text, const std::string& name) {
  double sum = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t end = line.find_first_of("{ ");
    if (end == std::string::npos || line.compare(0, end, name) != 0 ||
        end != name.size()) {
      continue;
    }
    sum += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return sum;
}

// ---------------------------------------------------------------- probe

int RunProbe(const Args& args) {
  const std::string port_file = args.Str("port-file");
  const double deadline = MonotonicSeconds() + args.Num("timeout-s");
  while (MonotonicSeconds() < deadline) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      StatusOr<net::Client> client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) Die("connect: " + client.status().ToString());
      StatusOr<ServiceResponse> response =
          client->Execute(KnnRequest(0, static_cast<int>(args.Int("k"))));
      const double answered = MonotonicSeconds();
      if (!response.ok()) Die("probe query: " + response.status().ToString());
      JsonOut out;
      out.Int("port", port);
      out.Num("answered_mono_s", answered);
      out.Print();
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Die("server did not publish its port in time");
}

// ----------------------------------------------------------------- load

struct LoadResult {
  long long attempted = 0;
  long long failed = 0;
  std::vector<double> latency_us;      // measured phase
  std::vector<double> rtt_overhead_us;  // round trip minus server latency
  long long cache_hits = 0;
};

// A stretch of the measured phase: answers [begin, end) and the time
// from the first send (or the previous segment's end) to its last answer.
struct Segment {
  size_t begin;
  size_t end;
  uint64_t start_ns;
  uint64_t end_ns;
};

// Each segment is the fewest whole passes that hold at least 2 000
// answers, so its p99 has 20 samples beyond it.
constexpr size_t kMinSegmentAnswers = 2000;

// Runs pipelined queries with `window` outstanding until `next_id`
// returns -1; calls `on_answer` for every successful response.
void RunClosedLoop(
    net::Client* client, size_t window, int k,
    const std::function<int()>& next_id,
    const std::function<bool(int, const ServiceResponse&, uint64_t)>& on_answer,
    LoadResult* result) {
  struct Pending {
    int id;
    uint64_t sent_ns;
  };
  std::deque<Pending> pending;
  bool exhausted = false;
  while (true) {
    while (!exhausted && pending.size() < window) {
      const int id = next_id();
      if (id < 0) {
        exhausted = true;
        break;
      }
      uint64_t request_id = 0;
      const uint64_t sent = NowNs();
      const Status st = client->Send(KnnRequest(id, k), &request_id);
      if (!st.ok()) Die("send: " + st.ToString());
      pending.push_back({id, sent});
      ++result->attempted;
    }
    if (pending.empty()) return;
    StatusOr<ServiceResponse> response = client->Receive();
    const uint64_t received = NowNs();
    const Pending done = pending.front();
    pending.pop_front();
    if (!client->ok()) Die("connection failed: " + response.status().ToString());
    if (!response.ok()) {
      std::fprintf(stderr, "query %d failed: %s\n", done.id,
                   response.status().ToString().c_str());
      ++result->failed;
      continue;
    }
    if (!on_answer(done.id, *response, received - done.sent_ns)) {
      ++result->failed;
    }
  }
}

// Properties every answer must have: k results in nondecreasing order,
// and the stored query object itself at distance 0 in first place.
bool AnswerWellFormed(const ServiceResponse& response, int k) {
  if (response.neighbors.empty() ||
      static_cast<int>(response.neighbors.size()) != k ||
      response.neighbors.front().distance != 0.0) {
    return false;
  }
  for (size_t i = 1; i < response.neighbors.size(); ++i) {
    if (response.neighbors[i].distance < response.neighbors[i - 1].distance) {
      return false;
    }
  }
  return true;
}

int RunLoad(const Args& args) {
  const int port = static_cast<int>(args.Int("port"));
  const long server_pid = args.Int("server-pid");
  const int k = static_cast<int>(args.Int("k"));
  const size_t window = static_cast<size_t>(args.Int("window"));
  const double seconds = args.Num("seconds");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));

  StatusOr<net::Client> connected = net::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) Die("connect: " + connected.status().ToString());
  net::Client client = std::move(connected).value();
  StatusOr<net::ServerInfo> info = client.Info();
  if (!info.ok()) Die("info: " + info.status().ToString());
  const int n = static_cast<int>(info->object_count);

  LoadResult result;
  // Enough for the fastest workload's run, so no reallocation copies
  // stall the measured loop.
  result.latency_us.reserve(static_cast<size_t>(seconds * 400000));
  result.rtt_overhead_us.reserve(result.latency_us.capacity());
  const std::vector<int> sample = SampleIds(seed, n, static_cast<int>(args.Int("sample")));
  std::vector<SampledAnswer> sampled;
  // Pass 0 warms the server (and, with the result cache on, fills it);
  // its answers are the uncached reference for every later pass.
  std::vector<std::vector<double>> reference(static_cast<size_t>(n));
  {
    const std::vector<int> pass = QueryPass(seed, 0, n);
    size_t next = 0;
    RunClosedLoop(
        &client, window, k,
        [&] { return next < pass.size() ? pass[next++] : -1; },
        [&](int id, const ServiceResponse& response, uint64_t) {
          if (!AnswerWellFormed(response, k)) return false;
          std::vector<double>& ref = reference[static_cast<size_t>(id)];
          for (const Neighbor& nb : response.neighbors) ref.push_back(nb.distance);
          if (std::find(sample.begin(), sample.end(), id) != sample.end()) {
            sampled.push_back({id, response.neighbors});
          }
          return true;
        },
        &result);
  }

  StatusOr<net::StatsResponse> before = client.Stats(0);
  if (!before.ok()) Die("stats: " + before.status().ToString());
  const double cpu_before = ProcCpuSeconds(server_pid);
  // Measured phase: whole passes, until `seconds` have elapsed at the
  // end of a pass, so every run keeps the corpus's family mix. The phase
  // is cut into segments of whole passes; the rates and percentiles
  // reported are medians over the segments, so a brief host stall moves
  // a few segments, not the run's figure.
  uint64_t pass_index = 1;
  std::vector<int> pass = QueryPass(seed, pass_index, n);
  size_t next = 0;
  long long measured = 0, mismatched_cache = 0;
  const uint64_t start = NowNs();
  std::vector<Segment> segments;
  Segment open{0, 0, start, start};
  RunClosedLoop(
      &client, window, k,
      [&] {
        if (next == pass.size()) {
          if (static_cast<double>(NowNs() - start) * 1e-9 >= seconds) return -1;
          pass = QueryPass(seed, ++pass_index, n);
          next = 0;
        }
        return pass[next++];
      },
      [&](int id, const ServiceResponse& response, uint64_t rtt_ns) {
        ++measured;
        result.latency_us.push_back(static_cast<double>(rtt_ns) * 1e-3);
        result.rtt_overhead_us.push_back(static_cast<double>(rtt_ns) * 1e-3 -
                                         response.latency_seconds * 1e6);
        if (response.cache_hit) ++result.cache_hits;
        if (measured % n == 0 &&
            static_cast<size_t>(measured) - open.begin >= kMinSegmentAnswers) {
          open.end = static_cast<size_t>(measured);
          open.end_ns = NowNs();
          segments.push_back(open);
          open = {open.end, open.end, open.end_ns, open.end_ns};
        }
        if (!AnswerWellFormed(response, k)) return false;
        // A cached answer must carry the distances computed uncached.
        const std::vector<double>& ref = reference[static_cast<size_t>(id)];
        for (size_t i = 0; i < ref.size(); ++i) {
          if (response.neighbors[i].distance != ref[i]) {
            ++mismatched_cache;
            return false;
          }
        }
        return true;
      },
      &result);
  const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
  // The tail after the last full segment joins that segment.
  if (segments.empty() || segments.back().end < static_cast<size_t>(measured)) {
    if (segments.empty()) segments.push_back(open);
    segments.back().end = static_cast<size_t>(measured);
    segments.back().end_ns = NowNs();
  }
  std::vector<double> segment_qps, segment_p50, segment_p99;
  for (const Segment& seg : segments) {
    const std::vector<double> slice(result.latency_us.begin() + seg.begin,
                                    result.latency_us.begin() + seg.end);
    segment_qps.push_back(static_cast<double>(seg.end - seg.begin) /
                          (static_cast<double>(seg.end_ns - seg.start_ns) * 1e-9));
    segment_p50.push_back(Quantile(slice, 0.50));
    segment_p99.push_back(Quantile(slice, 0.99));
  }
  const double cpu_after = ProcCpuSeconds(server_pid);
  const double peak_rss_mb = ProcPeakRssMb(server_pid);
  StatusOr<net::StatsResponse> after = client.Stats(0);
  if (!after.ok()) Die("stats: " + after.status().ToString());

  // Lemma 2 through the optimal multi-step algorithm: every refined
  // candidate came from the filter, and each executed query refined at
  // least k candidates.
  const std::string& text = after->metrics_text;
  const double filter_hits = Scraped(text, "vsim_filter_hits_total");
  const double refined = Scraped(text, "vsim_candidates_refined_total");
  const double executed = Scraped(text, "vsim_requests_completed_total") -
                          Scraped(text, "vsim_cache_hits_total");
  bool counters_ok = filter_hits >= refined && refined >= k * executed &&
                     executed >= 1;
  if (!counters_ok) {
    std::fprintf(stderr, "stats invariant broken: filter_hits %.0f refined "
                 "%.0f executed %.0f\n", filter_hits, refined, executed);
  }
  if (mismatched_cache > 0) {
    std::fprintf(stderr, "%lld answers differ from the uncached answer\n",
                 mismatched_cache);
  }

  StatusOr<CadDatabase> db = CadDatabase::Load(args.Str("db"));
  if (!db.ok()) Die("load db: " + db.status().ToString());
  const int brute_failures = BruteForceFailures(*db, sampled, k);
  result.failed += brute_failures;
  const bool sample_complete = sampled.size() == sample.size();

  const auto delta = [&](const std::string& name) {
    return Scraped(after->metrics_text, name) - Scraped(before->metrics_text, name);
  };
  const double pool_hits = delta("vsim_cache_pool_hits_total");
  const double pool_misses = delta("vsim_cache_pool_misses_total");
  const double queue_wait_count = delta("vsim_queue_wait_seconds_count");

  JsonOut out;
  out.Bool("correct", counters_ok && sample_complete && result.failed == 0);
  out.Int("attempted", result.attempted);
  out.Int("failed", result.failed);
  out.Int("measured", measured);
  out.Int("passes", static_cast<long long>(pass_index));
  out.Int("brute_force_checked", static_cast<long long>(sampled.size()));
  out.Int("segments", static_cast<long long>(segments.size()));
  out.Num("qps", Quantile(segment_qps, 0.5));
  out.Num("p50_ms", Quantile(segment_p50, 0.5) * 1e-3);
  out.Num("p99_ms", Quantile(segment_p99, 0.5) * 1e-3);
  out.Num("whole_run_qps", static_cast<double>(measured) / elapsed);
  out.Num("whole_run_p99_ms", Quantile(result.latency_us, 0.99) * 1e-3);
  out.Num("cpu_us_per_query",
          (cpu_after - cpu_before) * 1e6 / static_cast<double>(measured));
  out.Num("rss_mb", peak_rss_mb);
  out.Num("net.rtt_overhead_us", Quantile(result.rtt_overhead_us, 0.5));
  out.Num("service.cache_hit_ratio",
          static_cast<double>(result.cache_hits) / static_cast<double>(measured));
  out.Num("service.queue_wait_us",
          queue_wait_count > 0
              ? delta("vsim_queue_wait_seconds_sum") * 1e6 / queue_wait_count
              : 0.0);
  out.Num("cache.pool_misses_per_query", pool_misses / static_cast<double>(measured));
  out.Num("cache.pool_hit_ratio",
          pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses) : 0.0);
  out.Num("refined_per_query",
          delta("vsim_candidates_refined_total") / static_cast<double>(measured));
  out.Str("kernels", kernels::Active().name);
  out.Print();
  return 0;
}

// --------------------------------------------------------------- replay

// Bench-side spans: a layer name, its interval, the span that caused
// it and the query it served. Held in memory, written out at the end.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;
  int32_t request;
};

class SpanLog {
 public:
  int Begin(const char* name, int parent, int request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  uint64_t End(int span) {
    Span& s = spans_[static_cast<size_t>(span)];
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }
  // Chrome trace-event JSON (loads in Perfetto).
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // Per-callback spans are kept for the first queries only: the
      // file stays small, the totals above use every span.
      if (s.request >= kWrittenCallbackRequests &&
          std::string(s.name) == "distance.exact") {
        continue;
      }
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"request\":%d}}",
                    first ? "" : ",", s.name,
                    static_cast<double>(s.start_ns - origin) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                    s.parent, s.request);
      out << line;
      first = false;
    }
    out << "\n]}\n";
  }

 private:
  static constexpr int kWrittenCallbackRequests = 32;
  std::vector<Span> spans_;
};

// Times `fn` once under a span and returns the seconds it took.
double Timed(SpanLog* log, const char* name, const std::function<void()>& fn) {
  const int span = log->Begin(name, -1, -1);
  fn();
  return static_cast<double>(log->End(span)) * 1e-9;
}

struct RefinedPair {
  int query;
  int candidate;
};

// Per-object voxelization and cover search on a seeded sample of the
// corpus's mesh files, with the database's own extraction options.
void ReplayExtraction(const std::string& mesh_dir, const ExtractionOptions& opt,
                      uint64_t seed, int n, int count, SpanLog* log,
                      JsonOut* out) {
  const std::vector<int> sample = SampleIds(seed ^ 0x77, n, count);
  std::ifstream manifest(mesh_dir + "/labels.csv");
  std::vector<int> parts_of(static_cast<size_t>(n), 1);
  std::string line;
  std::getline(manifest, line);
  for (int i = 0; i < n && std::getline(manifest, line); ++i) {
    parts_of[static_cast<size_t>(i)] = std::stoi(line.substr(line.rfind(',') + 1));
  }
  double voxelize_s = 0.0, cover_s = 0.0;
  for (int id : sample) {
    std::vector<TriangleMesh> meshes;
    for (int p = 0; p < parts_of[static_cast<size_t>(id)]; ++p) {
      char name[64];
      std::snprintf(name, sizeof(name), "/obj%05d_p%d.obj", id, p);
      StatusOr<TriangleMesh> mesh = LoadMesh(mesh_dir + name);
      if (!mesh.ok()) Die("load mesh: " + mesh.status().ToString());
      meshes.push_back(std::move(mesh).value());
    }
    const int root = log->Begin("features.extract", -1, id);
    // Extraction rasterizes twice: once for the histogram models, once
    // for the cover models.
    VoxelizerOptions vox;
    vox.anisotropic_fit = opt.anisotropic_fit;
    std::vector<int> resolutions;
    if (opt.extract_histograms) resolutions.push_back(opt.histogram_resolution);
    resolutions.push_back(opt.cover_resolution);
    StatusOr<VoxelModel> model = Status::Internal("not voxelized");
    for (int r : resolutions) {
      vox.resolution = r;
      const int span = log->Begin("voxel.voxelize", root, id);
      model = VoxelizeParts(meshes, vox);
      voxelize_s += static_cast<double>(log->End(span)) * 1e-9;
      if (!model.ok()) Die("voxelize: " + model.status().ToString());
    }
    CoverSequenceOptions cov;
    cov.max_covers = opt.num_covers;
    cov.search = opt.cover_search;
    cov.seed = opt.seed;
    const int span = log->Begin("features.cover", root, id);
    StatusOr<CoverSequence> seq = ComputeCoverSequence(model->grid, cov);
    cover_s += static_cast<double>(log->End(span)) * 1e-9;
    log->End(root);
    if (!seq.ok()) Die("cover: " + seq.status().ToString());
  }
  out->Num("voxel.voxelize_ms", voxelize_s * 1e3 / static_cast<double>(sample.size()));
  out->Num("features.cover_ms", cover_s * 1e3 / static_cast<double>(sample.size()));
}

// Rebuilds the square minimal-matching cost matrix of one pair the way
// the library lays it out: the ground block from the active kernel, the
// surplus columns charging the larger set's weights.
struct PairBuffers {
  std::vector<double> large, small, cost;
  size_t m = 0, n = 0, dim = 0;
};

void PreparePair(const VectorSet& a, const VectorSet& b, PairBuffers* buf) {
  const VectorSet& large = a.size() >= b.size() ? a : b;
  const VectorSet& small = a.size() >= b.size() ? b : a;
  buf->m = large.size();
  buf->n = small.size();
  buf->dim = large.dim();
  buf->large.clear();
  buf->small.clear();
  for (const FeatureVector& v : large.vectors) buf->large.insert(buf->large.end(), v.begin(), v.end());
  for (const FeatureVector& v : small.vectors) buf->small.insert(buf->small.end(), v.begin(), v.end());
  buf->cost.assign(buf->m * buf->m, 0.0);
}

void FillWeights(const VectorSet& a, const VectorSet& b, PairBuffers* buf) {
  const VectorSet& large = a.size() >= b.size() ? a : b;
  for (size_t i = 0; i < buf->m; ++i) {
    const double w = Norm(large.vectors[i]);
    for (size_t j = buf->n; j < buf->m; ++j) buf->cost[i * buf->m + j] = w;
  }
}

int RunReplay(const Args& args) {
  const std::string db_path = args.Str("db");
  const std::string work = args.Str("work");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const int k = static_cast<int>(args.Int("k"));
  const bool disk = args.Int("disk") != 0;
  const size_t pool_pages = static_cast<size_t>(args.Int("pool-pages"));
  SpanLog log;
  JsonOut out;
  bool correct = true;

  // --- set-up layers
  StatusOr<CadDatabase> loaded = Status::Internal("not loaded");
  out.Num("core.db_load_s", Timed(&log, "core.db_load", [&] {
            loaded = CadDatabase::Load(db_path);
          }));
  if (!loaded.ok()) Die("load db: " + loaded.status().ToString());
  const CadDatabase& db = *loaded;
  const int n = static_cast<int>(db.size());

  ReplayExtraction(args.Str("meshes"), db.options(), seed, n,
                   static_cast<int>(args.Int("extract-sample")), &log, &out);

  out.Num("index.engine_build_s", Timed(&log, "index.engine_build", [&] {
            QueryEngine engine(&db);
          }));
  out.Num("index.mtree_build_s", Timed(&log, "index.mtree_build", [&] {
            MTreeOptions mopts;
            MTree<VectorSet> tree(
                [](const VectorSet& a, const VectorSet& b) {
                  return VectorSetDistance(a, b);
                },
                mopts);
            for (int id = 0; id < n; ++id) tree.Insert(db.object(id).vector_set, id);
          }));
  out.Num("index.xtree_build_s", Timed(&log, "index.xtree_build", [&] {
            std::vector<FeatureVector> centroids, covers;
            std::vector<int> ids;
            for (int id = 0; id < n; ++id) {
              centroids.push_back(db.object(id).centroid);
              covers.push_back(db.object(id).cover_vector);
              ids.push_back(id);
            }
            XTree centroid_tree(static_cast<int>(centroids[0].size()));
            XTree cover_tree(static_cast<int>(covers[0].size()));
            if (!centroid_tree.BulkLoad(centroids, ids).ok() ||
                !cover_tree.BulkLoad(covers, ids).ok()) {
              Die("X-tree bulk load failed");
            }
          }));
  // A store at the disk workload's pool size; its Get path is timed on
  // every workload.
  std::unique_ptr<VectorSetStore> store;
  out.Num("storage.store_write_s", Timed(&log, "storage.store_write", [&] {
            StatusOr<VectorSetStore> created =
                VectorSetStore::Create(work + "/replay.vspg", 4096, pool_pages);
            if (!created.ok()) Die("store: " + created.status().ToString());
            store = std::make_unique<VectorSetStore>(std::move(created).value());
            for (int id = 0; id < n; ++id) {
              if (!store->Append(db.object(id).vector_set).ok()) Die("store append");
            }
            if (!store->Flush().ok()) Die("store flush");
          }));

  // --- the served snapshot, as the workload's server builds it
  StatusOr<CadDatabase> served = CadDatabase::Load(db_path);
  if (!served.ok()) Die("load db: " + served.status().ToString());
  std::shared_ptr<const DbSnapshot> snapshot;
  if (disk) {
    // RAM copies kept so the engine's stored-id overload can run.
    StatusOr<std::shared_ptr<const DbSnapshot>> created =
        DbSnapshot::CreateDiskBacked(std::move(served).value(),
                                     work + "/replay-served.vspg", 0, {},
                                     pool_pages, /*keep_ram_sets=*/true);
    if (!created.ok()) Die("snapshot: " + created.status().ToString());
    snapshot = std::move(created).value();
  } else {
    snapshot = DbSnapshot::Create(std::move(served).value(), 0);
  }
  const QueryEngine& engine = snapshot->engine();
  const VectorSetStore* served_store = snapshot->store();

  // The measured passes' order: pass 1 of the load generator.
  const std::vector<int> queries = QueryPass(seed, 1, n);
  const double nq = static_cast<double>(queries.size());


  // Per query: QueryEngine::Knn under a span; the same call untraced
  // (timed only, the reference for the tracing overhead); then the same
  // query through MultiStepKnn with a span around every exact-distance
  // callback. Pairing the three per query keeps host drift out of their
  // differences.
  std::vector<RefinedPair> refined;
  uint64_t knn_ns = 0, untraced_ns = 0, multistep_ns = 0, exact_ns = 0;
  size_t mismatched = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int q = queries[i];
    const int request = static_cast<int>(i);
    const int knn_span = log.Begin("core.knn", -1, request);
    const std::vector<Neighbor> got = engine.Knn(QueryStrategy::kVectorSetFilter, q, k);
    knn_ns += log.End(knn_span);
    const uint64_t untraced_start = NowNs();
    const std::vector<Neighbor> expected =
        engine.Knn(QueryStrategy::kVectorSetFilter, q, k);
    untraced_ns += NowNs() - untraced_start;

    const VectorSet& query_set = db.object(q).vector_set;
    const int ms_span = log.Begin("index.multistep_knn", -1, request);
    const std::vector<Neighbor> replayed = MultiStepKnn(
        engine.centroid_index(), db.object(q).centroid,
        static_cast<double>(db.options().num_covers), k,
        [&](int id, IoStats*) {
          const int span = log.Begin("distance.exact", ms_span, request);
          double d = 0.0;
          if (served_store != nullptr) {
            StatusOr<VectorSet> candidate = served_store->Get(id);
            if (!candidate.ok()) Die("store get: " + candidate.status().ToString());
            d = VectorSetDistance(query_set, *candidate);
          } else {
            d = VectorSetDistance(query_set, db.object(id).vector_set);
          }
          exact_ns += log.End(span);
          refined.push_back({q, id});
          return d;
        });
    multistep_ns += log.End(ms_span);
    bool same = got.size() == expected.size() && replayed.size() == got.size();
    for (size_t j = 0; same && j < got.size(); ++j) {
      same = got[j].distance == expected[j].distance &&
             replayed[j].distance == got[j].distance;
    }
    if (!same) ++mismatched;
  }
  const double knn_us = static_cast<double>(knn_ns) * 1e-3 / nq;
  const double filter_us = static_cast<double>(multistep_ns - exact_ns) * 1e-3 / nq;
  const double refine_us = static_cast<double>(exact_ns) * 1e-3 / nq;
  if (mismatched > 0) {
    std::fprintf(stderr, "replay differs from QueryEngine::Knn on %zu queries\n",
                 mismatched);
    correct = false;
  }
  // Filter plus refine must account for most of an engine query.
  if (filter_us + refine_us < 0.5 * knn_us) {
    std::fprintf(stderr, "filter+refine %.1f us of knn %.1f us\n",
                 filter_us + refine_us, knn_us);
    correct = false;
  }
  out.Num("core.knn_us", knn_us);
  out.Num("index.filter_us", filter_us);
  out.Num("distance.refine_us", refine_us);
  out.Num("distance.exact_calls", static_cast<double>(refined.size()) / nq);
  // Tracing overhead: the multi-step query with a span around every
  // exact-distance call, minus the untraced engine query.
  out.Num("bench.trace_overhead_us",
          (static_cast<double>(multistep_ns) - static_cast<double>(untraced_ns)) *
              1e-3 / nq);

  // --- the refined pairs through each distance layer, in chunks so the
  // prepared matrices stay small.
  constexpr size_t kChunk = 2048;
  std::vector<PairBuffers> chunk(kChunk);
  double matching_s = 0.0, cost_matrix_s = 0.0, assignment_s = 0.0;
  const kernels::KernelSet& kernel = kernels::Active();
  for (size_t base = 0; base < refined.size(); base += kChunk) {
    const size_t count = std::min(kChunk, refined.size() - base);
    const auto set_of = [&](size_t i, bool query) -> const VectorSet& {
      const RefinedPair& p = refined[base + i];
      return db.object(query ? p.query : p.candidate).vector_set;
    };
    {
      const int span = log.Begin("distance.matching", -1, -1);
      double sink = 0.0;
      for (size_t i = 0; i < count; ++i) sink += VectorSetDistance(set_of(i, true), set_of(i, false));
      matching_s += static_cast<double>(log.End(span)) * 1e-9;
      if (!std::isfinite(sink)) Die("non-finite distance");
    }
    for (size_t i = 0; i < count; ++i) PreparePair(set_of(i, true), set_of(i, false), &chunk[i]);
    {
      const int span = log.Begin("kernels.cost_matrix", -1, -1);
      for (size_t i = 0; i < count; ++i) {
        PairBuffers& b = chunk[i];
        kernel.cost_matrix_build(kernels::GroundKind::kEuclidean, b.large.data(), b.m,
                                 b.small.data(), b.n, b.dim, b.cost.data(), b.m);
      }
      cost_matrix_s += static_cast<double>(log.End(span)) * 1e-9;
    }
    for (size_t i = 0; i < count; ++i) FillWeights(set_of(i, true), set_of(i, false), &chunk[i]);
    {
      const int span = log.Begin("distance.assignment", -1, -1);
      double sink = 0.0;
      for (size_t i = 0; i < count; ++i) {
        const int m = static_cast<int>(chunk[i].m);
        sink += SolveAssignment(chunk[i].cost, m, m).total_cost;
      }
      assignment_s += static_cast<double>(log.End(span)) * 1e-9;
      if (!std::isfinite(sink)) Die("non-finite assignment");
    }
  }
  const double pairs = std::max<double>(1.0, static_cast<double>(refined.size()));
  out.Num("distance.matching_us", matching_s * 1e6 / pairs);
  out.Num("kernels.cost_matrix_ns", cost_matrix_s * 1e9 / pairs);
  out.Num("distance.assignment_us", assignment_s * 1e6 / pairs);

  // --- storage: the refined candidates fetched through the store's pool.
  store->pool().ResetStats();
  {
    const int span = log.Begin("storage.get", -1, -1);
    for (const RefinedPair& p : refined) {
      if (!store->Get(p.candidate).ok()) Die("store get failed");
    }
    out.Num("storage.get_us", static_cast<double>(log.End(span)) * 1e-3 / pairs);
  }
  const cache::PoolStatsSnapshot pool = store->pool().Stats();
  out.Num("replay.pool_misses_per_query", static_cast<double>(pool.misses) / nq);
  out.Num("replay.pool_hit_ratio",
          static_cast<double>(pool.hits()) /
              std::max<double>(1.0, static_cast<double>(pool.hits() + pool.misses)));

  // --- service and codec: pass 0 then pass 1 through QueryService as
  // the workload's server is configured; pass 1 is timed.
  QueryServiceOptions sopts;
  sopts.num_threads = static_cast<int>(args.Int("threads"));
  sopts.cache_bytes = static_cast<size_t>(args.Int("cache-mb")) << 20;
  QueryService service(snapshot, sopts);
  for (int q : QueryPass(seed, 0, n)) {
    if (!service.Execute(KnnRequest(q, k)).ok()) Die("service warm-up failed");
  }
  double overhead_s = 0.0, codec_s = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ServiceRequest request = KnnRequest(queries[i], k);
    const int span = log.Begin("service.execute", -1, static_cast<int>(i));
    StatusOr<ServiceResponse> response = service.Execute(request);
    const double wall = static_cast<double>(log.End(span)) * 1e-9;
    if (!response.ok()) Die("service: " + response.status().ToString());
    overhead_s += wall - response->cost.cpu_seconds;

    // The wire round: request encode/decode, response encode/reassembly.
    const int codec = log.Begin("net.codec", span, static_cast<int>(i));
    std::string wire;
    net::AppendRequestFrame(i + 1, request, &wire);
    net::FrameHeader header;
    ServiceRequest decoded;
    if (!net::DecodeFrameHeader(reinterpret_cast<const uint8_t*>(wire.data()),
                                net::kFrameHeaderBytes, &header).ok() ||
        !net::DecodeRequestPayload(
             reinterpret_cast<const uint8_t*>(wire.data()) + net::kFrameHeaderBytes,
             header.payload_bytes, &decoded).ok()) {
      Die("request codec failed");
    }
    wire.clear();
    net::AppendResponseFrames(i + 1, *response, &wire);
    net::ResponseAssembler assembler;
    size_t offset = 0;
    while (offset < wire.size()) {
      const uint8_t* frame = reinterpret_cast<const uint8_t*>(wire.data()) + offset;
      if (!net::DecodeFrameHeader(frame, net::kFrameHeaderBytes, &header).ok() ||
          !assembler.Add(frame + net::kFrameHeaderBytes, header.payload_bytes,
                         (header.flags & net::kFlagFinal) != 0).ok()) {
        Die("response codec failed");
      }
      offset += net::kFrameHeaderBytes + header.payload_bytes;
    }
    const ServiceResponse round = assembler.Take();
    codec_s += static_cast<double>(log.End(codec)) * 1e-9;
    if (round.neighbors != response->neighbors) Die("codec round trip changed the answer");
  }
  out.Num("service.overhead_us", overhead_s * 1e6 / nq);
  out.Num("net.codec_us", codec_s * 1e6 / nq);

  log.Write(work + "/replay-spans.json");
  out.Bool("correct", correct);
  out.Int("replayed_queries", static_cast<long long>(queries.size()));
  out.Int("replay_mismatches", static_cast<long long>(mismatched));
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_harness probe|load|replay --flag value ...");
  const std::string mode = argv[1];
  const Args args(argc, argv);
  if (mode == "probe") return RunProbe(args);
  if (mode == "load") return RunLoad(args);
  if (mode == "replay") return RunReplay(args);
  Die("unknown mode " + mode);
}
