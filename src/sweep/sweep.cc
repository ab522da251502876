#include "src/sweep/sweep.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <list>
#include <sstream>
#include <thread>

#include "src/common/check.h"
#include "src/common/rng.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

namespace rtvirt::sweep {

namespace {

// Growth of the retry delay per failed attempt (SweepConfig::backoff_*).
constexpr double kBackoffFactor = 2.0;

class MonotonicClock : public Clock {
 public:
  int64_t NowMs() override {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void SleepMs(int64_t ms) override {
    if (ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }
};

std::string FirstLine(const std::string& s) {
  size_t end = s.find('\n');
  std::string line = end == std::string::npos ? s : s.substr(0, end);
  constexpr size_t kMaxLine = 240;
  if (line.size() > kMaxLine) {
    line.resize(kMaxLine);
  }
  return line;
}

}  // namespace

Clock* RealClock() {
  static MonotonicClock clock;
  return &clock;
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kClean:
      return "clean";
    case Outcome::kFailed:
      return "failed";
    case Outcome::kTimeout:
      return "timeout";
    case Outcome::kExhausted:
      return "exhausted";
  }
  return "?";
}

std::string SweepReport::Merged() const {
  std::ostringstream os;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardOutcome& s = shards[i];
    os << "shard " << i << ": " << OutcomeName(s.outcome) << " attempts=" << s.attempts;
    if (s.recovered) {
      os << " recovered";
    }
    if (s.resumed) {
      os << " resumed@" << s.resume_point_ns << "ns";
    }
    if (!s.reason.empty()) {
      os << " [" << (s.outcome == Outcome::kClean ? "last failure: " : "") << s.reason
         << "]";
    }
    os << "\n";
  }
  os << "sweep: shards=" << shards.size() << " clean=" << clean
     << " recovered=" << recovered << " unresolved=" << unresolved
     << " retries=" << retries << " timeouts=" << timeouts
     << " check_failures=" << check_failures << " crashes=" << crashes;
  if (resumed > 0) {
    // Only with checkpointing enabled, so default-path reports keep their
    // exact historical bytes.
    os << " resumed=" << resumed;
  }
  os << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// ShardSupervisor

ShardSupervisor::ShardSupervisor(const SweepConfig& config, int num_shards)
    : config_(config), shards_(static_cast<size_t>(num_shards < 0 ? 0 : num_shards)) {
  if (config_.max_attempts < 1) {
    config_.max_attempts = 1;
  }
  if (config_.backoff_initial_ms < 0) {
    config_.backoff_initial_ms = 0;
  }
  if (config_.backoff_cap_ms < config_.backoff_initial_ms) {
    config_.backoff_cap_ms = config_.backoff_initial_ms;
  }
}

int ShardSupervisor::NextRunnable(int64_t now_ms) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.state == State::kPending ||
        (s.state == State::kWaiting && s.not_before_ms <= now_ms)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int64_t ShardSupervisor::NextWakeMs() const {
  int64_t wake = kNoWake;
  for (const Shard& s : shards_) {
    if (s.state == State::kPending) {
      return 0;
    }
    if (s.state == State::kWaiting && s.not_before_ms < wake) {
      wake = s.not_before_ms;
    }
  }
  return wake;
}

bool ShardSupervisor::AllDone() const {
  return terminal_ == static_cast<int>(shards_.size());
}

ShardSupervisor::AttemptTicket ShardSupervisor::BeginAttempt(int shard, int64_t now_ms) {
  Shard& s = shards_[static_cast<size_t>(shard)];
  if (s.attempts > 0) {
    ++retries_;
  }
  ++s.attempts;
  s.state = State::kRunning;
  int64_t deadline_ms =
      config_.shard_deadline_ms > 0 ? now_ms + config_.shard_deadline_ms : kNoWake;
  return AttemptTicket{shard, s.attempts, deadline_ms};
}

int64_t ShardSupervisor::BackoffDelayMs(int failures) const {
  double delay = static_cast<double>(config_.backoff_initial_ms);
  for (int i = 1; i < failures; ++i) {
    delay *= kBackoffFactor;
    if (delay >= static_cast<double>(config_.backoff_cap_ms)) {
      return config_.backoff_cap_ms;
    }
  }
  int64_t ms = static_cast<int64_t>(delay);
  return ms > config_.backoff_cap_ms ? config_.backoff_cap_ms : ms;
}

void ShardSupervisor::Terminalize(Shard& s, Outcome outcome) {
  s.state = State::kTerminal;
  s.out.outcome = outcome;
  s.out.attempts = s.attempts;
  ++terminal_;
}

void ShardSupervisor::FailOrRetry(Shard& s, AttemptKind kind, const std::string& reason,
                                  int64_t now_ms) {
  s.out.last_failure = kind;
  s.out.reason = FirstLine(reason);
  switch (kind) {
    case AttemptKind::kTimeout:
      ++timeouts_;
      break;
    case AttemptKind::kCheckFailure:
      ++check_failures_;
      break;
    case AttemptKind::kCrash:
      ++crashes_;
      break;
    default:
      break;
  }
  if (s.attempts >= config_.max_attempts) {
    // Budget exhausted: the shard is quarantined — never re-dispatched — and
    // reported as a counted unresolved outcome. With a single-attempt budget
    // the outcome keeps the failure's own name (failed/timeout); with
    // retries it is kExhausted, the last failure preserved in reason.
    Outcome terminal = Outcome::kExhausted;
    if (config_.max_attempts == 1) {
      terminal = kind == AttemptKind::kTimeout ? Outcome::kTimeout : Outcome::kFailed;
    }
    Terminalize(s, terminal);
    return;
  }
  s.state = State::kWaiting;
  s.not_before_ms = now_ms + BackoffDelayMs(s.attempts);
}

bool ShardSupervisor::RecordResult(int shard, int attempt, const ShardResult& result,
                                   int64_t now_ms) {
  Shard& s = shards_[static_cast<size_t>(shard)];
  if (s.state != State::kRunning || s.attempts != attempt) {
    return false;  // Stale: a watchdog timeout already superseded this attempt.
  }
  if (!result.ok) {
    FailOrRetry(s, AttemptKind::kFailed, result.reason, now_ms);
    return true;
  }
  s.out.recovered = s.attempts > 1;
  s.out.report = result.report;
  s.out.resumed = result.resumed;
  s.out.resume_point_ns = result.resume_point_ns;
  Terminalize(s, Outcome::kClean);
  return true;
}

bool ShardSupervisor::RecordFailure(int shard, int attempt, AttemptKind kind,
                                    const std::string& reason, int64_t now_ms) {
  Shard& s = shards_[static_cast<size_t>(shard)];
  if (s.state != State::kRunning || s.attempts != attempt) {
    return false;
  }
  FailOrRetry(s, kind, reason, now_ms);
  return true;
}

SweepReport ShardSupervisor::BuildReport() const {
  SweepReport r;
  r.shards.reserve(shards_.size());
  for (const Shard& s : shards_) {
    r.shards.push_back(s.out);
    if (s.out.outcome == Outcome::kClean) {
      ++r.clean;
      if (s.out.recovered) {
        ++r.recovered;
      }
      if (s.out.resumed) {
        ++r.resumed;
      }
    } else {
      ++r.unresolved;
    }
  }
  r.retries = retries_;
  r.timeouts = timeouts_;
  r.check_failures = check_failures_;
  r.crashes = crashes_;
  return r;
}

// ---------------------------------------------------------------------------
// Forked attempts

namespace {

// Result record, child -> parent: a magic byte (so a child that dies
// mid-write is distinguishable from one that never reported), the ok and
// resumed flags, the resume point, then length-prefixed reason and report.
constexpr char kMagic = static_cast<char>(0xA7);

void AppendBytes(std::string& out, const void* data, size_t len) {
  out.append(static_cast<const char*>(data), len);
}

void AppendString(std::string& out, const std::string& s) {
  uint64_t len = s.size();
  AppendBytes(out, &len, sizeof(len));
  out += s;
}

std::string Encode(const ShardResult& r) {
  std::string out(1, kMagic);
  out += r.ok ? '\1' : '\0';
  out += r.resumed ? '\1' : '\0';
  AppendBytes(out, &r.resume_point_ns, sizeof(r.resume_point_ns));
  AppendString(out, r.reason);
  AppendString(out, r.report);
  return out;
}

bool ReadString(const std::string& buf, size_t& off, std::string& out) {
  uint64_t len = 0;
  if (buf.size() - off < sizeof(len)) {
    return false;
  }
  std::memcpy(&len, buf.data() + off, sizeof(len));
  off += sizeof(len);
  if (buf.size() - off < len) {
    return false;
  }
  out.assign(buf, off, len);
  off += len;
  return true;
}

// False unless `buf` holds a complete record.
bool Decode(const std::string& buf, ShardResult* r) {
  size_t off = 3 + sizeof(r->resume_point_ns);
  if (buf.size() < off || buf[0] != kMagic) {
    return false;
  }
  r->ok = buf[1] != 0;
  r->resumed = buf[2] != 0;
  std::memcpy(&r->resume_point_ns, buf.data() + 3, sizeof(r->resume_point_ns));
  return ReadString(buf, off, r->reason) && ReadString(buf, off, r->report);
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

// The RTVIRT_CHECK diagnostic in a child's stderr, its two lines (location
// and expression, then the message) joined into one; "" if there is none.
// It is the child's last write before abort(), so it is searched for from
// the end.
std::string CheckDiagnostic(const std::string& err) {
  size_t begin = err.rfind(kCheckFailurePrefix);
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = err.find('\n', begin);
  end = end == std::string::npos ? end : err.find('\n', end + 1);
  std::string diag = err.substr(begin, end == std::string::npos ? end : end - begin);
  std::replace(diag.begin(), diag.end(), '\n', ' ');
  return diag;
}

// The first line of a child's stderr with a letter in it (sanitizer reports
// open with a rule of '=' characters).
std::string FirstStderrLine(const std::string& err) {
  std::istringstream in(err);
  std::string line;
  while (std::getline(in, line)) {
    if (std::any_of(line.begin(), line.end(),
                    [](unsigned char c) { return std::isalpha(c) != 0; })) {
      return line;
    }
  }
  return "";
}

std::string CrashReason(int status, const std::string& err) {
  char buf[64];
  if (WIFSIGNALED(status)) {
    std::snprintf(buf, sizeof(buf), "crash: signal %d", WTERMSIG(status));
  } else {
    std::snprintf(buf, sizeof(buf), "crash: exit status %d without result",
                  WEXITSTATUS(status));
  }
  std::string line = FirstStderrLine(err);
  return line.empty() ? buf : buf + (": " + line);
}

ShardContext MakeContext(const SweepConfig& config, int shard, int attempt) {
  ShardContext ctx;
  ctx.shard = shard;
  ctx.attempt = attempt;
  ctx.seed = DeriveSeed(config.base_seed, static_cast<uint64_t>(shard));
  if (!config.checkpoint_dir.empty() && config.checkpoint_every_ms > 0) {
    ctx.checkpoint_path =
        config.checkpoint_dir + "/shard." + std::to_string(shard) + ".ckpt";
    ctx.checkpoint_every_ms = config.checkpoint_every_ms;
  }
  return ctx;
}

// Runs one attempt's shard body and hands its result to the parent. The
// parent is single-threaded and closes each child's write ends before it
// forks the next, so the only descriptors to set up are this child's own.
// noexcept: an exception that escapes the body ends the child in
// std::terminate instead of unwinding into the parent's frames.
[[noreturn]] void ChildMain(const SweepConfig& config, const ShardFn& fn,
                            const ShardSupervisor::AttemptTicket& ticket, int data_fd,
                            int err_fd) noexcept {
  // stderr (RTVIRT_CHECK diagnostics, sanitizer reports) goes to the parent;
  // stdout is silenced so a chatty body cannot corrupt the caller's report.
  ::dup2(err_fd, STDERR_FILENO);
  ::close(err_fd);
  int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::close(devnull);
  }
  ShardResult r;
  try {
    r = fn(MakeContext(config, ticket.shard, ticket.attempt));
  } catch (const std::exception& e) {
    r.ok = false;
    r.reason = std::string("exception: ") + e.what();
  }
#if defined(__SANITIZE_ADDRESS__)
  // _exit skips LeakSanitizer's exit-time check, so run it here; a leak
  // leaves no result and its report on the captured stderr.
  if (__lsan_do_recoverable_leak_check() != 0) {
    ::_exit(23);  // LeakSanitizer's own exit code.
  }
#endif
  // _exit, not exit: no atexit handlers or static destructors in the child,
  // and no flush of stdio buffers inherited from the parent.
  ::_exit(WriteAll(data_fd, Encode(r)) ? 0 : 3);
}

// One attempt in flight: its child and the read ends of the child's result
// pipe (fd[0]) and stderr pipe (fd[1]); a descriptor is -1 once at EOF, pid
// once reaped. Destroying an unreaped Child (RunSweep unwinding) kills it.
struct Child {
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    for (int f : fd) {
      if (f >= 0) {
        ::close(f);
      }
    }
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  ShardSupervisor::AttemptTicket ticket;
  pid_t pid = -1;
  int fd[2] = {-1, -1};
  std::string bytes[2];
  bool killed = false;  // SIGKILLed at its deadline.
};

// Forks `child->ticket`'s attempt; false if the pipes or the child could not
// be made.
bool Launch(const SweepConfig& config, const ShardFn& fn, Child* child) {
  int data[2];
  int err[2];
  if (::pipe(data) != 0) {
    return false;
  }
  if (::pipe(err) != 0) {
    ::close(data[0]);
    ::close(data[1]);
    return false;
  }
  child->fd[0] = data[0];
  child->fd[1] = err[0];
  child->pid = ::fork();
  if (child->pid == 0) {
    ::close(data[0]);
    ::close(err[0]);
    ChildMain(config, fn, child->ticket, data[1], err[1]);
  }
  ::close(data[1]);
  ::close(err[1]);
  return child->pid > 0;
}

// Reaps a child whose pipes are both at EOF and records how its attempt
// ended.
void Reap(const SweepConfig& config, Child& c, ShardSupervisor& sup, int64_t now_ms) {
  int status = 0;
  while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
  }
  c.pid = -1;
  const ShardSupervisor::AttemptTicket& t = c.ticket;
  ShardResult result;
  if (Decode(c.bytes[0], &result)) {
    sup.RecordResult(t.shard, t.attempt, result, now_ms);
  } else if (c.killed) {
    char reason[96];
    std::snprintf(reason, sizeof(reason),
                  "watchdog: exceeded %lld ms shard deadline (killed)",
                  static_cast<long long>(config.shard_deadline_ms));
    sup.RecordFailure(t.shard, t.attempt, AttemptKind::kTimeout, reason, now_ms);
  } else if (std::string diag = CheckDiagnostic(c.bytes[1]); !diag.empty()) {
    sup.RecordFailure(t.shard, t.attempt, AttemptKind::kCheckFailure, diag, now_ms);
  } else {
    sup.RecordFailure(t.shard, t.attempt, AttemptKind::kCrash,
                      CrashReason(status, c.bytes[1]), now_ms);
  }
}

}  // namespace

SweepReport RunSweep(const SweepConfig& user_config, int num_shards, const ShardFn& fn) {
  SweepConfig config = user_config;
  if (config.clock == nullptr) {
    config.clock = RealClock();
  }
  Clock* clock = config.clock;
  ShardSupervisor sup(config, num_shards);
  const size_t jobs = config.jobs > 1 ? static_cast<size_t>(config.jobs) : 1;
  std::list<Child> running;
  std::vector<pollfd> fds;
  while (!sup.AllDone()) {
    int64_t now = clock->NowMs();
    while (running.size() < jobs) {
      int shard = sup.NextRunnable(now);
      if (shard < 0) {
        break;
      }
      Child& child = running.emplace_back();
      child.ticket = sup.BeginAttempt(shard, now);
      if (!Launch(config, fn, &child)) {
        int attempt = child.ticket.attempt;
        running.pop_back();
        sup.RecordFailure(shard, attempt, AttemptKind::kCrash,
                          "crash: cannot fork a child", now);
      }
    }
    if (running.empty()) {
      clock->SleepMs(sup.NextWakeMs() - now);  // Every unfinished shard backs off.
      continue;
    }

    // Wake for the earliest deadline of a live child and, with a slot free,
    // the next backoff expiry. With every slot busy a pending shard cannot
    // start, so NextWakeMs() (0 while one is pending) is not a reason to wake.
    int64_t wake = running.size() < jobs ? sup.NextWakeMs() : kNoWake;
    fds.clear();
    for (Child& c : running) {
      if (!c.killed && c.ticket.deadline_ms <= now) {
        ::kill(c.pid, SIGKILL);
        c.killed = true;
      }
      if (!c.killed) {
        wake = std::min(wake, c.ticket.deadline_ms);
      }
      for (int fd : c.fd) {
        if (fd >= 0) {
          fds.push_back(pollfd{fd, POLLIN, 0});
        }
      }
    }
    int64_t timeout = wake == kNoWake ? -1 : std::clamp<int64_t>(wake - now, 0, INT_MAX);
    int polled = ::poll(fds.data(), fds.size(), static_cast<int>(timeout));
    RTVIRT_CHECK(polled >= 0 || errno == EINTR, "sweep: poll: %s", std::strerror(errno));

    size_t next = 0;
    for (Child& c : running) {
      for (int i = 0; i < 2; ++i) {
        if (c.fd[i] < 0 || (fds[next++].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        char buf[4096];
        ssize_t got = ::read(c.fd[i], buf, sizeof(buf));
        if (got > 0) {
          c.bytes[i].append(buf, static_cast<size_t>(got));
        } else if (got == 0 || errno != EINTR) {
          ::close(c.fd[i]);
          c.fd[i] = -1;
        }
      }
    }
    now = clock->NowMs();
    for (auto it = running.begin(); it != running.end();) {
      if (it->fd[0] < 0 && it->fd[1] < 0) {
        Reap(config, *it, sup, now);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  }
  return sup.BuildReport();
}

}  // namespace rtvirt::sweep
