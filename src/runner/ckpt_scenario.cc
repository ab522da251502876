#include "src/runner/ckpt_scenario.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

namespace rtvirt {

void CkptScenario::Start() {
  for (auto& rta : rtas) {
    rta->Start(0, options.horizon);
  }
}

std::unique_ptr<CkptScenario> BuildCkptScenario(const CkptScenarioOptions& options) {
  auto s = std::make_unique<CkptScenario>();
  s->options = options;

  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 4;
  cfg.seed = options.seed;
  if (options.faults) {
    cfg.faults.seed = options.seed ^ 0xC2B2AE3D27D4EB4Full;
    cfg.faults.hypercall_fail_prob = 0.05;
    cfg.faults.hypercall_spike_prob = 0.02;
  }
  s->exp = std::make_unique<Experiment>(std::move(cfg));

  // Two guests, two VCPUs each, two RTAs per guest with coprime-ish periods
  // so releases interleave densely and every checkpoint boundary lands
  // mid-flight for some chain.
  struct TaskSpec {
    int guest;
    const char* name;
    TimeNs slice;
    TimeNs period;
  };
  const TaskSpec kTasks[] = {
      {0, "vm0.cam", Ms(2), Ms(10)},
      {0, "vm0.ctl", Ms(3), Ms(20)},
      {1, "vm1.dsp", Ms(2), Ms(14)},
      {1, "vm1.log", Ms(4), Ms(30)},
  };
  GuestOs* guests[2] = {
      s->exp->AddGuest("vm0", 2),
      s->exp->AddGuest("vm1", 2),
  };
  for (const TaskSpec& t : kTasks) {
    RtaParams params;
    params.slice = t.slice;
    params.period = t.period;
    auto rta = std::make_unique<PeriodicRta>(guests[t.guest], t.name, params);
    rta->set_admission_retry(Ms(5));  // Ride out transient hypercall faults.
    s->monitor.Watch(rta->task());
    s->rtas.push_back(std::move(rta));
  }
  // Canonical registry order: workloads in creation order, then the monitor.
  for (auto& rta : s->rtas) {
    s->exp->RegisterCheckpointable(rta->ckpt_section(), rta.get());
  }
  s->exp->RegisterCheckpointable(DeadlineMonitor::kCkptSection, &s->monitor);
  return s;
}

std::string RecordDigestTrail(CkptScenario& s, TimeNs interval_ns, int intervals,
                              std::vector<IntervalDigest>* out, ckpt::Image* image_out) {
  for (int i = 0; i < intervals; ++i) {
    TimeNs boundary = static_cast<TimeNs>(i + 1) * interval_ns;
    s.exp->Run(boundary);
    ckpt::Image image;
    std::string err = s.exp->SaveCheckpoint(&image);
    if (!err.empty()) {
      return "interval " + std::to_string(i) + " (t=" + std::to_string(boundary) +
             "ns): " + err;
    }
    out->push_back(IntervalDigest{i, boundary, ckpt::DigestOf(image)});
    if (image_out != nullptr && i == intervals - 1) {
      *image_out = std::move(image);
    }
  }
  return "";
}

std::string TrailToText(const std::vector<IntervalDigest>& trail) {
  std::string text;
  for (const IntervalDigest& d : trail) {
    text += d.digest.ToLine(d.interval, d.t);
    text += '\n';
  }
  return text;
}

namespace {

// "key=value" -> value, or "" when the token has no '='.
std::string_view ValueOf(std::string_view token) {
  size_t eq = token.find('=');
  return eq == std::string_view::npos ? std::string_view() : token.substr(eq + 1);
}

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

}  // namespace

std::string ParseTrail(const std::string& text, std::vector<IntervalDigest>* out) {
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    std::istringstream tokens(line);
    std::string token;
    IntervalDigest d;
    bool have_interval = false, have_t = false, have_combined = false;
    bool first = true;
    while (tokens >> token) {
      if (first) {
        first = false;
        if (token != "digest") {
          return "trail line " + std::to_string(lineno) + ": expected 'digest', got '" +
                 token + "'";
        }
        continue;
      }
      std::string_view value = ValueOf(token);
      if (token.rfind("interval=", 0) == 0) {
        d.interval = std::atoi(std::string(value).c_str());
        have_interval = true;
      } else if (token.rfind("t=", 0) == 0) {
        d.t = std::atoll(std::string(value).c_str());
        have_t = true;
      } else if (token.rfind("combined=", 0) == 0) {
        if (!ParseHex64(value, &d.digest.combined)) {
          return "trail line " + std::to_string(lineno) + ": bad combined digest '" +
                 std::string(value) + "'";
        }
        have_combined = true;
      } else {
        ckpt::DigestEntry e;
        size_t eq = token.find('=');
        if (eq == std::string::npos || !ParseHex64(value, &e.digest)) {
          return "trail line " + std::to_string(lineno) + ": bad section token '" + token +
                 "'";
        }
        e.name = token.substr(0, eq);
        d.digest.sections.push_back(std::move(e));
      }
    }
    if (!have_interval || !have_t || !have_combined) {
      return "trail line " + std::to_string(lineno) +
             ": missing interval=/t=/combined= field";
    }
    out->push_back(std::move(d));
  }
  return "";
}

DivergenceReport CompareTrails(const std::vector<IntervalDigest>& expected,
                               const std::vector<IntervalDigest>& actual) {
  DivergenceReport r;
  std::ostringstream os;
  size_t n = expected.size() < actual.size() ? expected.size() : actual.size();
  for (size_t i = 0; i < n; ++i) {
    const IntervalDigest& e = expected[i];
    const IntervalDigest& a = actual[i];
    if (e.digest.combined == a.digest.combined) {
      continue;
    }
    r.diverged = true;
    r.interval = e.interval;
    r.t = e.t;
    os << "replay-verify: FIRST DIVERGENCE at interval " << e.interval << " t=" << e.t
       << "ns\n";
    // Component-level breakdown: walk the expected section list; a section
    // missing on either side is itself a fork.
    for (const ckpt::DigestEntry& es : e.digest.sections) {
      const ckpt::DigestEntry* as = nullptr;
      for (const ckpt::DigestEntry& cand : a.digest.sections) {
        if (cand.name == es.name) {
          as = &cand;
          break;
        }
      }
      char expected_hex[20], actual_hex[20];
      std::snprintf(expected_hex, sizeof(expected_hex), "%016llx",
                    static_cast<unsigned long long>(es.digest));
      if (as == nullptr) {
        r.forked.push_back(es.name);
        os << "  " << es.name << ": expected=" << expected_hex
           << " actual=<missing>  <-- forked\n";
        continue;
      }
      std::snprintf(actual_hex, sizeof(actual_hex), "%016llx",
                    static_cast<unsigned long long>(as->digest));
      if (es.digest == as->digest) {
        os << "  " << es.name << ": " << expected_hex << " ok\n";
      } else {
        r.forked.push_back(es.name);
        os << "  " << es.name << ": expected=" << expected_hex << " actual=" << actual_hex
           << "  <-- forked\n";
      }
    }
    for (const ckpt::DigestEntry& as : a.digest.sections) {
      bool known = false;
      for (const ckpt::DigestEntry& es : e.digest.sections) {
        if (es.name == as.name) {
          known = true;
          break;
        }
      }
      if (!known) {
        r.forked.push_back(as.name);
        os << "  " << as.name << ": expected=<missing> actual=present  <-- forked\n";
      }
    }
    r.summary = os.str();
    return r;
  }
  if (expected.size() != actual.size()) {
    r.diverged = true;
    r.interval = static_cast<int>(n);
    r.t = n < expected.size() ? expected[n].t : actual[n].t;
    os << "replay-verify: trail length mismatch (expected " << expected.size()
       << " intervals, actual " << actual.size() << "); first missing interval " << n
       << "\n";
    r.summary = os.str();
    return r;
  }
  os << "replay-verify: " << expected.size() << " intervals byte-identical\n";
  r.summary = os.str();
  return r;
}

}  // namespace rtvirt
