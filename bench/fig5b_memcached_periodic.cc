// Figure 5b: five memcached VMs (sharded servers, one Mutilate instance
// each) alongside ten periodic VMs emulating video streaming servers
// (3x24fps, 3x30fps, 2x48fps, 2x60fps; Table 3 parameters) on the 15-PCPU
// host. Reports the aggregate memcached latency distribution, the video
// VMs' deadline misses, and the allocated/claimed bandwidth per framework.

#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace rtvirt {
namespace {

constexpr TimeNs kDuration = Sec(200);
constexpr TimeNs kSlo = Us(500);
constexpr int kVideoFps[] = {24, 24, 24, 30, 30, 30, 48, 48, 60, 60};

struct Setup {
  const char* name;
  Framework fw;
  ServerParams mc_server;  // RT-Xen only.
  TimeNs rtvirt_slice;     // RTVirt only.
  const char* paper_999;
};

struct Outcome {
  Samples latency;
  DeadlineMonitor video;
  double allocated = 0;
  double claimed = 0;
};

void Run(const Setup& setup, Outcome& out) {
  // Credit keeps its default 30 ms accounting window (cap enforcement
  // granularity) beside the paper's 500 us ratelimit: the window beat
  // against the video periods is what turns caps into deadline misses.
  Experiment exp(bench::Config(setup.fw, 15));
  DeadlineMonitor mc_monitor;
  std::vector<std::unique_ptr<MemcachedServer>> servers;
  std::vector<std::unique_ptr<PeriodicRta>> videos;
  std::vector<PeriodicResource> interfaces;

  for (int i = 0; i < 5; ++i) {
    GuestOs* mc = exp.AddGuest("mc" + std::to_string(i), 1);
    MemcachedConfig mcfg;
    switch (setup.fw) {
      case Framework::kRtvirt:
        mcfg.slice = setup.rtvirt_slice;
        bench::SetMicroSlack(exp, mc);  // 6 us slack on the 500 us period.
        out.allocated +=
            Bandwidth::FromSlicePeriod(setup.rtvirt_slice + Us(6), kSlo).ToDouble();
        break;
      case Framework::kRtXen: {
        exp.SetVcpuServer(mc->vm()->vcpu(0), setup.mc_server);
        Bandwidth bw =
            Bandwidth::FromSlicePeriod(setup.mc_server.budget, setup.mc_server.period);
        mc->SetVcpuCapacity(0, bw);
        mcfg.slice = std::min(setup.mc_server.budget, Us(66));
        interfaces.push_back(PeriodicResource{setup.mc_server.period, setup.mc_server.budget});
        out.allocated += bw.ToDouble();
        break;
      }
      case Framework::kCredit:
        // Paper: the VM is bounded to its allocated bandwidth (26% of a CPU,
        // from Table 4's 130 us / 500 us) via weight + cap.
        mc->vm()->set_weight(260);
        exp.credit()->SetCap(mc->vm()->vcpu(0), Bandwidth::FromDouble(0.26));
        out.allocated += 0.26;
        break;
      default:
        break;
    }
    auto server = std::make_unique<MemcachedServer>(mc, "mc" + std::to_string(i), mcfg,
                                                    exp.rng().Fork());
    server->task()->set_observer(&mc_monitor);
    server->Start(0, kDuration);
    servers.push_back(std::move(server));
  }

  for (int i = 0; i < 10; ++i) {
    RtaParams video = VlcParams(kVideoFps[i]);
    GuestOs* g;
    if (setup.fw == Framework::kRtXen) {
      PeriodicResource iface;
      g = bench::AddRtXenVm(exp, "video" + std::to_string(i), video, &iface);
      interfaces.push_back(iface);
      out.allocated += iface.bandwidth().ToDouble();
    } else {
      g = exp.AddGuest("video" + std::to_string(i), 1);
      if (setup.fw == Framework::kRtvirt) {
        out.allocated += Bandwidth::FromSlicePeriod(video.slice + Us(500), video.period)
                             .ToDouble();
      } else {
        // Credit: weight proportional to, and cap at, the VM's allocated
        // bandwidth (this is what "allocated" means for Credit). The cap
        // equals the rt-app demand, so any accounting-window burstiness
        // shows up as deadline misses — Credit has no notion of deadlines.
        double need = video.bandwidth().ToDouble();
        g->vm()->set_weight(static_cast<int>(need * 1000));
        exp.credit()->SetCap(g->vm()->vcpu(0), Bandwidth::FromDouble(need));
        out.allocated += need;
      }
    }
    auto rta = std::make_unique<PeriodicRta>(g, "video" + std::to_string(i), video);
    rta->task()->set_observer(&out.video);
    rta->Start(0, kDuration);
    videos.push_back(std::move(rta));
  }

  out.claimed = setup.fw == Framework::kRtXen
                    ? DmprPack(interfaces).claimed_cpus
                    : out.allocated;
  exp.Run(kDuration + Ms(300));
  out.latency = mc_monitor.response_times_us();
}

}  // namespace
}  // namespace rtvirt

int main() {
  using namespace rtvirt;
  bench::Header(
      "Figure 5b: 5 memcached VMs + 10 video-streaming VMs (SLO: 500 us @ p99.9)");

  const Setup setups[] = {
      {"Credit", Framework::kCredit, {}, 0, "1170"},
      {"RT-Xen A", Framework::kRtXen, {Us(66), Us(283)}, 0, "1974"},
      {"RT-Xen B", Framework::kRtXen, {Us(33), Us(177)}, 0, "296"},
      {"RTVirt", Framework::kRtvirt, {}, Us(58), "303"},
  };

  TablePrinter table({"Config", "alloc CPUs", "claimed CPUs", "mc p99.9", "SLO met",
                      "video misses", "worst video miss%", "paper mc p99.9"});
  std::vector<std::pair<const char*, Samples>> cdfs;
  for (const Setup& s : setups) {
    Outcome out;
    Run(s, out);
    table.AddRow({s.name, TablePrinter::Fmt(out.allocated, 2),
                  TablePrinter::Fmt(out.claimed, 2),
                  TablePrinter::Fmt(out.latency.Percentile(99.9), 1),
                  out.latency.Percentile(99.9) <= ToUs(kSlo) ? "yes" : "NO",
                  std::to_string(out.video.total_misses()) + "/" +
                      std::to_string(out.video.total_completed()),
                  TablePrinter::Pct(out.video.WorstTaskMissRatio(), 2), s.paper_999});
    cdfs.emplace_back(s.name, std::move(out.latency));
  }
  table.Print(std::cout);

  std::cout << "\nAggregate memcached latency CDFs (us), 20 points each:\n";
  for (auto& [name, samples] : cdfs) {
    std::cout << name << ":\n";
    PrintCdf(std::cout, samples, 20, "us");
  }
  std::cout << "\nPaper: Credit misses the SLO (1170 us) and drops video deadlines (worst\n"
               "14.35%); RT-Xen meets video deadlines only via overprovisioning (claimed 15\n"
               "CPUs); RTVirt meets both with ~10% less allocated / 46.7% less claimed\n"
               "bandwidth.\n";
  return 0;
}
