// perfbench: the compiled half of the serving benchmark. run.py
// orchestrates it; each subcommand is one step of a benchmark run and
// works inside one run directory <dir>:
//
//   gen <dir> --world-seed W --seed S --concepts N --lines noisy|names
//       --count C
//       GenerateWorld(N concepts, seed W) -> <dir>/eks.tsv + kb.tsv, plus C
//       candidate RELAX lines in rank order -> <dir>/candidates.txt. Seed S
//       draws each line's context (and, for `names`, the concepts).
//   prepare <dir> --image IMG --max D
//       Keeps the first D candidates whose term maps on IMG (so no request
//       of the workload fails to map) -> <dir>/lines.tsv.
//   load <dir> --port P --seed S --zipf Z --warmup-s W --open-s O --rate R
//        --closed-s C --conns N --gen-probes G
//       One round of load on a running medrelax_server over loopback TCP
//       from one thread (poll over N connections plus one control
//       connection): a closed-loop warm-up, an open-loop window at R req/s
//       timed from each request's due time, a closed-loop throughput window
//       and GEN probes. Every distinct reply is appended to
//       <dir>/replies.tsv for `check`; the round's JSON summary goes to
//       stdout.
//   check <dir> --image IMG
//       The correctness oracle: recomputes every replied line in-process
//       (mapper -> RelaxConceptWithK on IMG) and compares it with every
//       distinct server reply, ignoring only gen= and hit=.
//   trace <dir> --image-out IMG [--exact] --seed S --zipf Z --requests N
//         --workers W --queue Q --cache C
//       The traced in-process run: offline ingest (Build + WriteImage),
//       LoadFromImage, the name index, and the parse -> map -> service
//       chain, with a span around each call into a layer. Prints the
//       per-layer metrics as JSON; spans go to <dir>/spans.json.
//
// Every flag a step names is required: run.py passes them all, from
// perfbench/workloads.json.

#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "medrelax/common/string_util.h"
#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/query_generator.h"
#include "medrelax/io/dag_io.h"
#include "medrelax/io/kb_io.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/serve/protocol.h"
#include "medrelax/serve/relaxation_service.h"
#include "medrelax/serve/snapshot.h"
#include "medrelax/text/normalize.h"

using namespace medrelax;  // NOLINT — tool brevity

namespace {

using Clock = std::chrono::steady_clock;
constexpr int64_t kSecond = 1000000000;
/// How long the client waits for a reply. An open-loop request that got an
/// `err` reply or none at all is counted at this latency, so a failure
/// misses every latency limit.
constexpr int64_t kReplyTimeout = 30 * kSecond;
constexpr double kFailedLatencyUs = static_cast<double>(kReplyTimeout) / 1e3;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- flags

struct Args {
  std::string dir;
  std::map<std::string, std::string> flags;

  std::string Required(const std::string& name) const {
    auto it = flags.find(name);
    if (it == flags.end()) Die("missing --" + name);
    return it->second;
  }
  double Num(const std::string& name) const {
    return std::strtod(Required(name).c_str(), nullptr);
  }
  bool Has(const std::string& name) const { return flags.count(name) != 0; }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.dir = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) Die("unexpected argument " + flag);
    flag = flag.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "1";
    }
  }
  return args;
}

// ---------------------------------------------------------------- files

/// One workload line after `prepare`: the protocol text plus what the
/// oracle needs to recompute its answer.
struct Line {
  ConceptId concept_id = kInvalidConcept;
  ContextId context = kNoContext;
  size_t k = 0;
  std::string term;  ///< parsed term, as the server echoes it
  std::string text;  ///< the RELAX line sent on the wire
};

std::vector<Line> ReadLines(const std::string& dir) {
  std::ifstream in(dir + "/lines.tsv");
  if (!in) Die("cannot read " + dir + "/lines.tsv");
  std::vector<Line> lines;
  std::string row;
  while (std::getline(in, row)) {
    std::vector<std::string> cols;
    std::istringstream fields(row);
    std::string col;
    while (std::getline(fields, col, '\t')) cols.push_back(col);
    if (cols.size() != 5) Die("bad lines.tsv row: " + row);
    Line line;
    line.concept_id = static_cast<ConceptId>(std::stoul(cols[0]));
    line.context = static_cast<ContextId>(std::stoul(cols[1]));
    line.k = std::stoul(cols[2]);
    line.term = cols[3];
    line.text = cols[4];
    lines.push_back(std::move(line));
  }
  if (lines.empty()) Die("lines.tsv is empty");
  return lines;
}

/// Replies are stored one per row with '\n' folded to '\x1f'.
std::string Fold(std::string text) {
  std::replace(text.begin(), text.end(), '\n', '\x1f');
  return text;
}
std::string Unfold(std::string text) {
  std::replace(text.begin(), text.end(), '\x1f', '\n');
  return text;
}

/// Drops the per-run fields (gen=, hit=) from a RELAX reply header so a
/// reply compares equal to the oracle's rendering.
std::string NormalizeReply(const std::string& reply) {
  if (reply.rfind("ok relax ", 0) != 0) return reply;
  const size_t eol = reply.find('\n');
  const size_t gen = reply.rfind("' gen=", eol);
  if (gen == std::string::npos) return reply;
  const size_t radius = reply.find(" radius=", gen);
  if (radius == std::string::npos || radius > eol) return reply;
  return reply.substr(0, gen + 1) + reply.substr(radius);
}

// ---------------------------------------------------------------- stats

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// A flat JSON object writer; values are numbers or strings.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    Add(key, StrFormat("%.9g", value));
  }
  void Int(const std::string& key, uint64_t value) {
    Add(key, StrFormat("%llu", static_cast<unsigned long long>(value)));
  }
  void Str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') {
        escaped += '\\';
        escaped += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        escaped += StrFormat("\\u%04x", static_cast<unsigned>(c));
      } else {
        escaped += c;
      }
    }
    Add(key, "\"" + escaped + "\"");
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  void Add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

/// Samples line indexes: Zipf(s) over ranks when s > 0, else uniform.
class LinePicker {
 public:
  LinePicker(size_t n, double zipf, uint64_t seed) : rng_(seed), n_(n) {
    if (zipf > 0) {
      double total = 0.0;
      cdf_.reserve(n);
      for (size_t r = 1; r <= n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r), zipf);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }
  size_t Next() {
    if (cdf_.empty()) {
      return std::uniform_int_distribution<size_t>(0, n_ - 1)(rng_);
    }
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, n_ - 1);
  }

 private:
  std::mt19937_64 rng_;
  size_t n_;
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------- gen

int RunGen(const Args& args) {
  SnomedGeneratorOptions eks;
  KbGeneratorOptions kb;
  eks.num_concepts = static_cast<size_t>(args.Num("concepts"));
  eks.seed = static_cast<uint64_t>(args.Num("world-seed"));
  kb.seed = eks.seed + 1;
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed"));
  Result<GeneratedWorld> world = GenerateWorld(eks, kb);
  if (!world.ok()) Die("GenerateWorld: " + world.status().ToString());
  Status s1 = SaveDagToFile(world->eks.dag, args.dir + "/eks.tsv");
  Status s2 = SaveKbToFile(world->kb, args.dir + "/kb.tsv");
  if (!s1.ok() || !s2.ok()) Die("save: " + s1.ToString() + s2.ToString());

  const std::string kind = args.Required("lines");
  const size_t count = static_cast<size_t>(args.Num("count"));
  const ConceptDag& dag = world->eks.dag;
  const std::string ctx_labels[2] = {
      world->contexts.context(world->ctx_indication).Label(),
      world->contexts.context(world->ctx_risk).Label()};
  std::mt19937_64 rng(seed * 7919 + 17);
  std::vector<std::string> lines;
  std::set<std::string> seen;
  auto add = [&](const std::string& line) {
    if (seen.insert(line).second) lines.push_back(line);
  };

  if (kind == "noisy") {
    // Noisy surfaces of popular findings, Table 1's noise mix, in
    // popularity order; each paired with a query context. The surfaces
    // are a function of the world; the seed draws the contexts.
    MappingWorkloadOptions options;
    options.num_queries = count * 2;
    options.seed = eks.seed + 2;
    for (const MappingQuery& q : GenerateMappingQueries(world->eks, options)) {
      if (lines.size() >= count) break;
      add("RELAX ctx=" + ctx_labels[rng() % 2] + " " + q.surface);
    }
  } else if (kind == "names") {
    // Uniform (concept, context) pairs over the whole DAG; context is
    // none, indication or risk.
    std::uniform_int_distribution<size_t> pick(1, dag.num_concepts() - 1);
    for (size_t tries = 0; lines.size() < count && tries < count * 4;
         ++tries) {
      const ConceptId id = static_cast<ConceptId>(pick(rng));
      const size_t ctx = rng() % 3;
      add(ctx == 2 ? "RELAX " + dag.name(id)
                   : "RELAX ctx=" + ctx_labels[ctx] + " " + dag.name(id));
    }
  } else {
    Die("unknown --lines " + kind);
  }
  std::ofstream out(args.dir + "/candidates.txt");
  for (const std::string& line : lines) out << line << "\n";
  std::printf("{\"concepts\": %zu, \"candidates\": %zu}\n", dag.num_concepts(),
              lines.size());
  return 0;
}

// ---------------------------------------------------------------- prepare

std::shared_ptr<Snapshot> LoadImage(const std::string& path) {
  Result<std::shared_ptr<Snapshot>> snap = Snapshot::LoadFromImage(path);
  if (!snap.ok()) {
    Die("LoadFromImage " + path + ": " + snap.status().ToString());
  }
  return std::move(*snap);
}

/// Parses a RELAX line the way the server does (serve::ParseRelaxArgs plus
/// the context-label lookup) and maps its term; nullopt when the line
/// would not be answered.
std::optional<Line> ResolveLine(const Snapshot& snap, const std::string& text) {
  if (text.rfind("RELAX", 0) != 0) return std::nullopt;
  Result<serve::RelaxLine> parsed = serve::ParseRelaxArgs(text.substr(5));
  if (!parsed.ok()) return std::nullopt;
  Line line;
  if (parsed->has_context) {
    line.context = snap.ingestion().contexts.FindByLabel(parsed->context_label);
    if (line.context == kNoContext) return std::nullopt;
  }
  std::optional<ConceptMatch> match = snap.mapper().Map(parsed->term);
  if (!match.has_value()) return std::nullopt;
  line.concept_id = match->id;
  line.k = parsed->top_k != 0 ? static_cast<size_t>(parsed->top_k)
                              : snap.relaxer().options().top_k;
  line.term = parsed->term;
  line.text = text;
  return line;
}

/// Runs fn(i) for i in [0, n) on `threads` workers.
template <typename Fn>
void ParallelFor(size_t n, unsigned threads, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

unsigned Threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

int RunPrepare(const Args& args) {
  std::shared_ptr<Snapshot> snap = LoadImage(args.Required("image"));
  std::vector<std::string> candidates;
  {
    std::ifstream in(args.dir + "/candidates.txt");
    std::string row;
    while (std::getline(in, row)) candidates.push_back(row);
  }
  const size_t max_lines = static_cast<size_t>(args.Num("max"));
  std::vector<std::optional<Line>> resolved(candidates.size());
  ParallelFor(candidates.size(), Threads(), [&](size_t i) {
    resolved[i] = ResolveLine(*snap, candidates[i]);
  });
  std::ofstream out(args.dir + "/lines.tsv");
  size_t kept = 0;
  for (const std::optional<Line>& line : resolved) {
    if (!line.has_value() || kept == max_lines) continue;
    out << line->concept_id << '\t' << line->context << '\t' << line->k << '\t'
        << line->term << '\t' << line->text << '\n';
    ++kept;
  }
  std::printf("{\"candidates\": %zu, \"lines\": %zu}\n", candidates.size(),
              kept);
  return kept > 0 ? 0 : 1;
}

// ---------------------------------------------------------------- check

std::string ExpectedReply(const Snapshot& snap, const Line& line) {
  const RelaxationOutcome outcome =
      snap.relaxer().RelaxConceptWithK(line.concept_id, line.context, line.k);
  std::string out = StrFormat(
      "ok relax term='%s' radius=%u concepts=%zu instances=%zu\n",
      line.term.c_str(), outcome.effective_radius, outcome.concepts.size(),
      outcome.instances.size());
  for (const ScoredConcept& sc : outcome.concepts) {
    out += StrFormat("concept %s sim=%.3f\n",
                     snap.dag().name(sc.concept_id).c_str(), sc.similarity);
    for (InstanceId i : sc.instances) {
      out += StrFormat("  instance %s\n",
                       snap.kb().instances.instance(i).name.c_str());
    }
  }
  out += "end\n";
  return out;
}

int RunCheck(const Args& args) {
  std::shared_ptr<Snapshot> snap = LoadImage(args.Required("image"));
  const std::vector<Line> lines = ReadLines(args.dir);
  // line index -> distinct replies seen for it (err replies excluded:
  // they are counted as errors by the load step, not checked here).
  std::map<size_t, std::set<std::string>> replies;
  for (const char* file : {"/replies.tsv", "/setup_replies.tsv"}) {
    std::ifstream in(args.dir + file);
    std::string row;
    while (std::getline(in, row)) {
      const size_t tab = row.find('\t');
      if (tab == std::string::npos) Die("bad reply row");
      const size_t index = std::stoul(row.substr(0, tab));
      if (index >= lines.size()) Die("reply for unknown line");
      std::string reply = NormalizeReply(Unfold(row.substr(tab + 1)));
      if (reply.rfind("err ", 0) == 0) continue;
      replies[index].insert(std::move(reply));
    }
  }
  std::vector<size_t> ids;
  for (const auto& [index, set] : replies) ids.push_back(index);
  std::vector<std::string> expected(ids.size());
  ParallelFor(ids.size(), Threads(), [&](size_t i) {
    expected[i] = ExpectedReply(*snap, lines[ids[i]]);
  });
  size_t mismatches = 0, checked = 0;
  std::string example;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (const std::string& reply : replies[ids[i]]) {
      ++checked;
      if (reply != expected[i]) {
        ++mismatches;
        if (example.empty()) {
          example = "line: " + lines[ids[i]].text + "\nexpected:\n" +
                    expected[i] + "got:\n" + reply;
        }
      }
    }
  }
  if (!example.empty()) std::fprintf(stderr, "mismatch\n%s", example.c_str());
  std::printf("{\"lines_checked\": %zu, \"replies_checked\": %zu,"
              " \"mismatches\": %zu}\n",
              ids.size(), checked, mismatches);
  return 0;
}

// ---------------------------------------------------------------- load

/// One request in flight on a connection.
struct Pending {
  size_t line = 0;     ///< line index, or a LoadClient::k* control marker
  int64_t due_ns = 0;  ///< when the schedule wanted it sent
  int64_t sent_ns = 0;
  int phase = 0;
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::deque<Pending> pending;
};

enum Phase { kWarmup = 0, kOpen = 1, kClosed = 2, kProbe = 3 };

class LoadClient {
 public:
  LoadClient(const std::vector<Line>& lines, uint16_t port)
      : lines_(lines), port_(port), replies_(lines.size()) {}

  ~LoadClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens `n` connections; returns how many were refused.
  size_t Connect(size_t n) {
    size_t refused = 0;
    for (size_t i = 0; i < n; ++i) {
      Conn conn;
      conn.fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (conn.fd < 0 ||
          connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        if (conn.fd >= 0) close(conn.fd);
        ++refused;
        continue;
      }
      int one = 1;
      setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      conns_.push_back(std::move(conn));
      // The greeting ("ok serving ...") is the first reply of a session.
      conns_.back().pending.push_back(Pending{kGreeting, 0, NowNs(), kProbe});
    }
    while (Outstanding() > 0) {
      if (!Pump(kSecond * 5)) Die("no greeting from server");
    }
    return refused;
  }

  size_t num_conns() const { return conns_.size(); }
  size_t Depth(size_t c) const { return conns_[c].pending.size(); }
  bool Idle(size_t c) const { return conns_[c].pending.empty(); }

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  /// Queues `text` on connection `c`.
  void Send(size_t c, const std::string& text, Pending p) {
    p.sent_ns = NowNs();
    conns_[c].out += text;
    conns_[c].out += '\n';
    conns_[c].pending.push_back(p);
    Flush(conns_[c]);
  }

  void SendLine(size_t c, size_t line, int64_t due_ns, int phase) {
    Send(c, lines_[line].text, Pending{line, due_ns, 0, phase});
    ++attempted[phase];
  }

  /// Waits up to `timeout_ns` for socket activity and consumes complete
  /// replies. False when nothing happened in time.
  bool Pump(int64_t timeout_ns) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      short events = POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    timespec timeout{static_cast<time_t>(timeout_ns / 1000000000),
                     static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) return false;
    for (size_t i = 0; i < fds.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[65536];
        const ssize_t n = read(c.fd, buf, sizeof(buf));
        if (n <= 0) Die("server closed a connection");
        c.in.append(buf, static_cast<size_t>(n));
        Consume(c, NowNs());
      }
    }
    return true;
  }

  // Per-phase results.
  std::vector<double> latency_us[4];
  std::vector<double> late_ms;
  std::vector<double> gen_us;
  uint64_t attempted[4] = {0, 0, 0, 0};
  uint64_t errors[4] = {0, 0, 0, 0};  ///< `err` replies
  uint64_t completed[4] = {0, 0, 0, 0};  ///< `ok` replies
  std::map<std::string, uint64_t> error_kinds;

  static constexpr size_t kGreeting = SIZE_MAX;
  static constexpr size_t kGen = SIZE_MAX - 1;

  /// Appends the distinct replies per line, for the oracle.
  void WriteReplies(const std::string& path) const {
    std::ofstream out(path, std::ios::app);
    for (size_t i = 0; i < replies_.size(); ++i) {
      for (const std::string& r : replies_[i]) {
        out << i << '\t' << Fold(r) << '\n';
      }
    }
  }

 private:
  void Flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_DONTWAIT);
      if (n <= 0) return;  // retried on POLLOUT
      c.out.erase(0, static_cast<size_t>(n));
    }
  }

  /// Length of the first complete reply in `in`, or 0.
  static size_t ReplyLength(const std::string& in, bool multi_line) {
    const size_t eol = in.find('\n');
    if (eol == std::string::npos) return 0;
    if (!multi_line || in.rfind("ok relax ", 0) != 0) return eol + 1;
    const size_t end = in.find("\nend\n", eol);
    return end == std::string::npos ? 0 : end + 5;
  }

  void Consume(Conn& c, int64_t now) {
    while (!c.pending.empty()) {
      const Pending& p = c.pending.front();
      const bool relax = p.line < lines_.size();
      const size_t len = ReplyLength(c.in, relax);
      if (len == 0) return;
      std::string reply = c.in.substr(0, len);
      c.in.erase(0, len);
      const bool ok = reply.rfind("ok", 0) == 0;
      if (relax) {
        if (ok) {
          latency_us[p.phase].push_back(
              static_cast<double>(now - (p.phase == kOpen ? p.due_ns
                                                          : p.sent_ns)) /
              1e3);
          ++completed[p.phase];
        } else {
          if (p.phase == kOpen) latency_us[kOpen].push_back(kFailedLatencyUs);
          ++errors[p.phase];
          const size_t colon = reply.find(':');
          ++error_kinds[reply.substr(0, colon == std::string::npos
                                            ? reply.size() - 1
                                            : colon)];
        }
        std::set<std::string>& seen = replies_[p.line];
        if (seen.size() < 4) seen.insert(NormalizeReply(reply));
        if (p.phase == kOpen) {
          late_ms.push_back(static_cast<double>(p.sent_ns - p.due_ns) / 1e6);
        }
      } else if (p.line == kGen) {
        if (ok) gen_us.push_back(static_cast<double>(now - p.sent_ns) / 1e3);
      } else if (!ok) {
        Die("bad greeting: " + reply);
      }
      c.pending.pop_front();
    }
  }

  const std::vector<Line>& lines_;
  uint16_t port_;
  std::deque<Conn> conns_;
  std::vector<std::set<std::string>> replies_;
};

int RunLoad(const Args& args) {
  const std::vector<Line> lines = ReadLines(args.dir);
  const size_t nconns = static_cast<size_t>(args.Num("conns"));
  const double rate = args.Num("rate");
  LinePicker picker(lines.size(), args.Num("zipf"),
                    static_cast<uint64_t>(args.Num("seed")) * 31 + 7);
  LoadClient d(lines, static_cast<uint16_t>(args.Num("port")));
  const size_t refused = d.Connect(nconns);
  if (d.num_conns() == 0) Die("every connection was refused");
  // The control connection (GEN) is the last one.
  const size_t workers = d.num_conns();
  if (d.Connect(1) != 0) Die("control connection refused");

  // Closed loop over the worker connections: each keeps one request in
  // flight until `seconds` have passed.
  const auto closed_loop = [&](double seconds, int phase) {
    const int64_t start = NowNs();
    const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
    for (size_t c = 0; c < workers; ++c) {
      d.SendLine(c, picker.Next(), start, phase);
    }
    // Pump until every connection has drained past the stop time.
    std::vector<bool> active(workers, true);
    size_t live = workers;
    while (live > 0) {
      if (!d.Pump(kSecond)) {
        if (NowNs() > stop + kReplyTimeout) break;  // timed out
        continue;
      }
      const int64_t now = NowNs();
      for (size_t c = 0; c < workers; ++c) {
        if (!active[c] || !d.Idle(c)) continue;
        if (now < stop) {
          d.SendLine(c, picker.Next(), now, phase);
        } else {
          active[c] = false;
          --live;
        }
      }
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  };

  closed_loop(args.Num("warmup-s"), kWarmup);

  // Open loop: request i is due at start + i / rate and goes out on the
  // least-loaded worker connection (pipelined behind its in-flight one).
  const double open_s = args.Num("open-s");
  const int64_t open_start = NowNs();
  const int64_t open_stop = open_start + static_cast<int64_t>(open_s * 1e9);
  const double interval_ns = 1e9 / rate;
  uint64_t issued = 0;
  for (;;) {
    const int64_t now = NowNs();
    int64_t due = open_start + static_cast<int64_t>(issued * interval_ns);
    while (due <= now && due < open_stop) {
      size_t best = 0;
      for (size_t c = 1; c < workers; ++c) {
        if (d.Depth(c) < d.Depth(best)) best = c;
      }
      d.SendLine(best, picker.Next(), due, kOpen);
      ++issued;
      due = open_start + static_cast<int64_t>(issued * interval_ns);
    }
    if (due >= open_stop && d.Outstanding() == 0) break;
    if (now > open_stop + kReplyTimeout) break;  // timed out
    const int64_t wait_ns =
        due < open_stop ? due - NowNs() : static_cast<int64_t>(100e6);
    d.Pump(std::max<int64_t>(0, wait_ns));
  }
  const uint64_t open_timeouts =
      d.attempted[kOpen] - d.completed[kOpen] - d.errors[kOpen];
  d.latency_us[kOpen].insert(d.latency_us[kOpen].end(), open_timeouts,
                             kFailedLatencyUs);

  const double closed_wall = closed_loop(args.Num("closed-s"), kClosed);
  const uint64_t closed_timeouts =
      d.attempted[kClosed] - d.completed[kClosed] - d.errors[kClosed];

  // Idle-server GEN round trips: the transport floor.
  const size_t gen_probes = static_cast<size_t>(args.Num("gen-probes"));
  for (size_t i = 0; i < gen_probes; ++i) {
    d.Send(workers, "GEN", Pending{LoadClient::kGen, 0, 0, kProbe});
    while (d.Outstanding() > 0 && d.Pump(kSecond * 5)) {
    }
  }
  d.WriteReplies(args.dir + "/replies.tsv");

  JsonObject out;
  out.Int("refused", refused);
  out.Int("open_attempted", d.attempted[kOpen]);
  out.Int("open_ok", d.completed[kOpen]);
  out.Int("open_errors", d.errors[kOpen]);
  out.Int("open_timeouts", open_timeouts);
  out.Num("open_p50_us", Percentile(d.latency_us[kOpen], 0.5));
  out.Num("open_p99_us", Percentile(d.latency_us[kOpen], 0.99));
  out.Num("late_p99_ms", Percentile(d.late_ms, 0.99));
  out.Int("closed_attempted", d.attempted[kClosed]);
  out.Int("closed_ok", d.completed[kClosed]);
  out.Int("closed_errors", d.errors[kClosed]);
  out.Int("closed_timeouts", closed_timeouts);
  out.Num("closed_seconds", closed_wall);
  out.Num("gen_p50_us", Percentile(d.gen_us, 0.5));
  std::string kinds;
  for (const auto& [kind, n] : d.error_kinds) {
    kinds += (kinds.empty() ? "" : "; ") + kind + " x" + std::to_string(n);
  }
  out.Str("error_kinds", kinds);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

// ---------------------------------------------------------------- trace

/// One traced interval. Spans of one request share `request`; offline
/// and setup spans use request 0.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  bool derived = false;  ///< rebuilt from RelaxStats durations
};

/// Keeps spans in memory; written out once, at the end of the run.
class Tracer {
 public:
  uint64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
               uint64_t parent, uint64_t request, bool derived = false) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, spans_.size() + 1, parent,
                          request, derived});
    return spans_.size();
  }

  /// Times fn() as a span named `name`.
  template <typename Fn>
  auto Time(const std::string& name, uint64_t parent, uint64_t request,
            Fn fn) {
    const int64_t start = NowNs();
    auto result = fn();
    Add(name, start, NowNs(), parent, request);
    return result;
  }

  /// Durations (in `unit_ns`) of every span named `name`.
  std::vector<double> Durations(const std::string& name,
                                double unit_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / unit_ns);
      }
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"derived\": " << (s.derived ? "true" : "false") << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The service the benchmark's server runs: --workers, --queue and
/// --cache as run.py passes them to medrelax_server.
ServiceOptions ServerOptions(const Args& args) {
  ServiceOptions options;
  options.num_workers = static_cast<unsigned>(args.Num("workers"));
  options.queue_capacity = static_cast<size_t>(args.Num("queue"));
  options.cache.capacity = static_cast<size_t>(args.Num("cache"));
  return options;
}

/// Waits for one SubmitAsync answer.
struct Completion {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  int64_t end_ns = 0;
  std::optional<Result<RelaxResponse>> response;
};

/// Per-request results of a traced pass.
struct ChainSample {
  bool ok = false;
  bool cache_hit = false;
  uint64_t latency_ns = 0;
  RelaxStats stats;
};

/// One pass of the parse -> map -> SubmitAsync chain over `n` requests,
/// one at a time, on a fresh service. With `tracer` set every call into a
/// layer gets a span and each answer becomes a sample; without it the
/// pass records nothing. Returns the pass wall time.
double ChainPass(const std::vector<Line>& lines, uint64_t seed, double zipf,
                 size_t n, std::shared_ptr<Snapshot> snap,
                 const ServiceOptions& options, Tracer* tracer,
                 uint64_t first_request, std::vector<ChainSample>* samples) {
  RelaxationService service(std::move(snap), options);
  LinePicker picker(lines.size(), zipf, seed);
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const Line& line = lines[picker.Next()];
    const uint64_t rid = first_request + i;
    std::shared_ptr<const Snapshot> current = service.snapshot();
    const int64_t t0 = tracer != nullptr ? NowNs() : 0;
    Result<serve::RelaxLine> parsed =
        serve::ParseRelaxArgs(std::string_view(line.text).substr(5));
    if (!parsed.ok()) Die("parse failed: " + line.text);
    RelaxRequest request;
    if (parsed->has_context) {
      request.context =
          current->ingestion().contexts.FindByLabel(parsed->context_label);
    }
    request.top_k = static_cast<size_t>(parsed->top_k);
    const int64_t t1 = tracer != nullptr ? NowNs() : 0;
    std::optional<ConceptMatch> match = current->mapper().Map(parsed->term);
    if (!match.has_value()) Die("map failed: " + line.text);
    request.concept_id = match->id;
    const int64_t t2 = tracer != nullptr ? NowNs() : 0;
    Completion done;
    service.SubmitAsync(std::move(request),
                        [&done, tracer](Result<RelaxResponse> response) {
                          std::lock_guard<std::mutex> lock(done.mu);
                          if (tracer != nullptr) done.end_ns = NowNs();
                          done.response = std::move(response);
                          done.done = true;
                          done.cv.notify_one();
                        });
    {
      std::unique_lock<std::mutex> lock(done.mu);
      done.cv.wait(lock, [&done] { return done.done; });
    }
    if (tracer == nullptr) continue;
    const int64_t t3 = NowNs();
    const uint64_t root = tracer->Add("request", t0, t3, 0, rid);
    tracer->Add("protocol.parse", t0, t1, root, rid);
    tracer->Add("matching.map", t1, t2, root, rid);
    const uint64_t submit =
        tracer->Add("service.submit_async", t2, done.end_ns, root, rid);
    ChainSample sample;
    if (done.response->ok()) {
      const RelaxResponse& r = **done.response;
      sample.ok = true;
      sample.cache_hit = r.cache_hit;
      sample.latency_ns = r.latency_ns;
      if (!r.cache_hit) {
        // RelaxStats carries durations only: lay the relaxer's spans out
        // back to back, ending at the answer.
        sample.stats = r.outcome->stats;
        int64_t at = done.end_ns - static_cast<int64_t>(sample.stats.total_ns);
        const uint64_t relax = tracer->Add("relax.total", at, done.end_ns,
                                           submit, rid, true);
        for (const auto& [name, ns] :
             {std::pair<const char*, uint64_t>{"relax.candidate",
                                               sample.stats.candidate_ns},
              {"relax.scoring", sample.stats.scoring_ns},
              {"relax.rank", sample.stats.rank_ns}}) {
          tracer->Add(name, at, at + static_cast<int64_t>(ns), relax, rid,
                      true);
          at += static_cast<int64_t>(ns);
        }
      }
    }
    samples->push_back(sample);
  }
  const double wall = static_cast<double>(NowNs() - start) / 1e9;
  if (tracer != nullptr) {
    tracer->Time("service.stats", 0, 0, [&] { return service.Stats(); });
  }
  return wall;
}

int RunTrace(const Args& args) {
  Tracer tracer;
  JsonObject out;
  const std::string image = args.Required("image-out");
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed")) * 31 + 7;
  const double zipf = args.Num("zipf");
  const size_t requests = static_cast<size_t>(args.Num("requests"));
  const ServiceOptions service_options = ServerOptions(args);

  // Offline phase (relax/ingestion), as medrelax_ingest runs it.
  SnapshotOptions options;
  options.use_exact_mapper = args.Has("exact");
  const int64_t load_start = NowNs();
  Result<ConceptDag> dag = LoadDagFromFile(args.dir + "/eks.tsv");
  Result<KnowledgeBase> kb = LoadKbFromFile(args.dir + "/kb.tsv");
  tracer.Add("ingest.load_tsv", load_start, NowNs(), 0, 0);
  if (!dag.ok() || !kb.ok()) Die("world load failed");
  Result<std::shared_ptr<Snapshot>> built =
      tracer.Time("ingest.build", 0, 0, [&] {
        return Snapshot::Build(std::move(*dag), std::move(*kb), nullptr,
                               options);
      });
  if (!built.ok()) Die("Build: " + built.status().ToString());
  Status written = tracer.Time("ingest.write", 0, 0,
                               [&] { return (*built)->WriteImage(image); });
  if (!written.ok()) Die("WriteImage: " + written.ToString());
  built->reset();

  // Snapshot loads (flat + serve/snapshot): one per chain pass and one for
  // the service replay.
  std::vector<std::shared_ptr<Snapshot>> snaps;
  for (int i = 0; i < 5; ++i) {
    snaps.push_back(
        tracer.Time("snapshot.load", 0, 0, [&] { return LoadImage(image); }));
  }

  const std::vector<Line> lines = ReadLines(args.dir);

  // Matching layer: a name index over the same DAG. On an EDIT image the
  // mapper's first fuzzy lookup builds the trigram table (at boot, so in
  // setup_s) and every Map verifies a trigram blocking set; an exact image
  // does neither, so there trigram_build_ms and candidates_mean are 0.
  const bool fuzzy = !options.use_exact_mapper;
  NameIndex index(&snaps[0]->dag());
  const EditMatcherOptions edit_options;
  if (fuzzy) {
    tracer.Time("matching.trigram_build", 0, 0, [&] {
      return index.CandidatesByTrigram(NormalizeTerm(lines[0].term),
                                       edit_options.max_candidates);
    });
  }

  // Warm every snapshot's mapper (an EDIT mapper builds its own trigram
  // table on first use) so the passes below time steady-state calls.
  for (const auto& snap : snaps) (void)snap->mapper().Map(lines[0].term);

  // Chain passes: untraced and traced, alternating, identical inputs.
  std::vector<ChainSample> samples;
  double untraced_s = 0.0, traced_s = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    const bool traced = pass % 2 == 1;
    const double wall = ChainPass(
        lines, seed, zipf, requests, snaps[pass], service_options,
        traced ? &tracer : nullptr,
        1 + static_cast<uint64_t>(pass) * requests, &samples);
    (traced ? traced_s : untraced_s) += wall;
  }

  // Per-term matching probes over the first requests of the sequence:
  // does the term's normalized form already sit in the exact-name table,
  // and how big is its trigram blocking set (EDIT images only).
  {
    LinePicker picker(lines.size(), zipf, seed);
    std::unordered_map<size_t, std::pair<bool, size_t>> probe;
    double exact = 0.0, candidates = 0.0;
    const size_t probes = std::min<size_t>(requests, 300);
    for (size_t i = 0; i < probes; ++i) {
      const size_t l = picker.Next();
      auto it = probe.find(l);
      if (it == probe.end()) {
        const bool is_key = !tracer.Time("matching.find_exact", 0, 0, [&] {
                               return index.FindExact(lines[l].term);
                             }).empty();
        const size_t n =
            !fuzzy ? 0
                   : tracer.Time("matching.candidates", 0, 0, [&] {
                       return index.CandidatesByTrigram(
                           NormalizeTerm(lines[l].term),
                           edit_options.max_candidates);
                     }).size();
        it = probe.emplace(l, std::make_pair(is_key, n)).first;
      }
      exact += it->second.first ? 1.0 : 0.0;
      candidates += static_cast<double>(it->second.second);
    }
    out.Num("matching.exact_key_share", exact / static_cast<double>(probes));
    out.Num("matching.candidates_mean",
            candidates / static_cast<double>(probes));
  }

  // Service under the workload's concurrency: the same request sequence
  // (pre-mapped) with up to four answers outstanding, as from four
  // connections.
  {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    // Declared after what its callbacks touch, so its workers are joined
    // before those go away.
    RelaxationService service(snaps[4], service_options);
    LinePicker picker(lines.size(), zipf, seed);
    for (size_t i = 0; i < requests * 2; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return outstanding < 4; });
        ++outstanding;
      }
      const Line& line = lines[picker.Next()];
      RelaxRequest request;
      request.concept_id = line.concept_id;
      request.context = line.context;
      request.top_k = line.k;
      service.SubmitAsync(std::move(request), [&](Result<RelaxResponse>) {
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
        cv.notify_one();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding == 0; });
    }
    const ServiceStatsSnapshot stats = tracer.Time(
        "service.stats", 0, 0, [&] { return service.Stats(); });
    const double completed =
        static_cast<double>(std::max<uint64_t>(1, stats.completed));
    out.Num("service.coalesced_share",
            static_cast<double>(stats.coalesced_hits) / completed);
    out.Num("service.requests_per_invocation",
            completed /
                static_cast<double>(std::max<uint64_t>(1, stats.cache_misses)));
    out.Int("service.queue_high_water", stats.queue_depth_high_water);
    out.Int("service.rejected", stats.rejected_queue_full +
                                    stats.rejected_deadline +
                                    stats.rejected_shutdown + stats.failed);
  }

  std::vector<double> latency_us, wait_us, total_us, candidate_us, scoring_us,
      rank_us, scanned, visited;
  double geo_hits = 0.0, geo_all = 0.0;
  for (const ChainSample& s : samples) {
    if (!s.ok) continue;
    const uint64_t relax_ns = s.cache_hit ? 0 : s.stats.total_ns;
    latency_us.push_back(static_cast<double>(s.latency_ns) / 1e3);
    wait_us.push_back(
        static_cast<double>(s.latency_ns - std::min(s.latency_ns, relax_ns)) /
        1e3);
    if (s.cache_hit) continue;
    total_us.push_back(static_cast<double>(s.stats.total_ns) / 1e3);
    candidate_us.push_back(static_cast<double>(s.stats.candidate_ns) / 1e3);
    scoring_us.push_back(static_cast<double>(s.stats.scoring_ns) / 1e3);
    rank_us.push_back(static_cast<double>(s.stats.rank_ns) / 1e3);
    scanned.push_back(static_cast<double>(s.stats.candidates_scanned));
    visited.push_back(static_cast<double>(s.stats.neighbors_visited));
    geo_hits += static_cast<double>(s.stats.geometry_cache_hits);
    geo_all += static_cast<double>(s.stats.geometry_cache_hits +
                                   s.stats.geometry_cache_misses);
  }
  const std::vector<double> parse_ns = tracer.Durations("protocol.parse", 1);
  const std::vector<double> map_us = tracer.Durations("matching.map", 1e3);
  out.Num("protocol.parse_p50_ns", Percentile(parse_ns, 0.5));
  out.Num("matching.map_p50_us", Percentile(map_us, 0.5));
  out.Num("matching.map_p99_us", Percentile(map_us, 0.99));
  out.Num("matching.trigram_build_ms",
          fuzzy ? tracer.Durations("matching.trigram_build", 1e6)[0] : 0.0);
  out.Num("service.relax_p50_us", Percentile(latency_us, 0.5));
  out.Num("service.relax_p99_us", Percentile(latency_us, 0.99));
  out.Num("service.wait_p50_us", Percentile(wait_us, 0.5));
  out.Num("relax.total_p50_us", Percentile(total_us, 0.5));
  out.Num("relax.candidate_p50_us", Percentile(candidate_us, 0.5));
  out.Num("relax.scoring_p50_us", Percentile(scoring_us, 0.5));
  out.Num("relax.rank_p50_us", Percentile(rank_us, 0.5));
  out.Num("relax.candidates_scanned_mean", Mean(scanned));
  out.Num("relax.neighbors_visited_mean", Mean(visited));
  out.Num("relax.geometry_hit_rate", geo_all > 0 ? geo_hits / geo_all : 0.0);
  out.Int("relax.computed", total_us.size());
  out.Num("snapshot.load_p50_ms",
          Percentile(tracer.Durations("snapshot.load", 1e6), 0.5));
  out.Num("ingest.build_s", tracer.Durations("ingest.build", 1e9)[0]);
  out.Num("ingest.write_s", tracer.Durations("ingest.write", 1e9)[0]);
  out.Num("tracing.overhead_share", traced_s / untraced_s - 1.0);
  out.Int("chain.requests", samples.size());
  tracer.Write(args.dir + "/spans.json");
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Die("usage: perfbench gen|prepare|load|check|trace <dir> ...");
  }
  const std::string step = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (step == "gen") return RunGen(args);
  if (step == "prepare") return RunPrepare(args);
  if (step == "load") return RunLoad(args);
  if (step == "check") return RunCheck(args);
  if (step == "trace") return RunTrace(args);
  Die("unknown step " + step);
}
