// The sched_rtvirt() hypercall ABI (paper section 3.2).
//
// A guest kernel uses this call to request host-level CPU bandwidth changes
// for its VCPUs when RTAs register, change their requirements, move between
// VCPUs, or unregister. The host scheduler performs admission control and
// returns one of the status codes below.

#ifndef SRC_HV_HYPERCALL_H_
#define SRC_HV_HYPERCALL_H_

#include <cstdint>

#include "src/common/bandwidth.h"
#include "src/common/time.h"

namespace rtvirt {

class Vcpu;

// Flags of the sched_rtvirt() hypercall.
enum class SchedOp {
  kIncBw,     // Raise one VCPU's bandwidth reservation (RTA register / growth).
  kDecBw,     // Lower one VCPU's bandwidth reservation (RTA shrink / unregister).
  kIncDecBw,  // Atomically move bandwidth between two VCPUs (RTA re-pinned).
};

// Reason code carried by a bandwidth-change hypercall.
//   kBwReasonOverloadShed — a DEC_BW issued because the guest compressed or
//     shed reservations in response to host overload pressure (as opposed to
//     a voluntary shrink when an RTA unregisters); the host counts these to
//     observe how fast the guests are responding to a pressure signal.
//   kBwReasonAdmission — an INC_BW carrying *new* RTA demand (registration or
//     a parameter raise). A rejection of these is the overload signal: the
//     host raises pressure and withholds the rejected demand from the
//     published headroom so the retrying application gets the bandwidth the
//     guests are about to free.
//   kBwReasonReinflate — an INC_BW undoing an earlier overload degradation
//     (re-inflating a compressed reservation or resuming a shed task). A
//     rejection of these must NOT read as fresh overload, or recovery probes
//     and the pressure signal would chase each other in a loop.
//   kBwReasonSloControl — an INC_BW/DEC_BW issued by the closed-loop SLO
//     controller (src/control) tracking a tenant's tail latency. Handled like
//     kBwReasonReinflate: admitted only up to the high watermark and never
//     counted as fresh overload pressure, so a controller probing for
//     headroom cannot trigger the compress/shed ladder it would then fight.
constexpr int64_t kBwReasonNone = 0;
constexpr int64_t kBwReasonOverloadShed = 1;
constexpr int64_t kBwReasonAdmission = 2;
constexpr int64_t kBwReasonReinflate = 3;
constexpr int64_t kBwReasonSloControl = 4;

struct HypercallArgs {
  SchedOp op = SchedOp::kIncBw;
  // Primary VCPU: the one whose reservation grows (kIncBw, kIncDecBw) or
  // shrinks (kDecBw). `bw_a`/`period_a` are the VCPU's new *total* parameters,
  // not deltas, so the call is idempotent.
  Vcpu* vcpu_a = nullptr;
  Bandwidth bw_a;
  TimeNs period_a = 0;
  // Secondary VCPU for kIncDecBw: the one giving bandwidth up.
  Vcpu* vcpu_b = nullptr;
  Bandwidth bw_b;
  TimeNs period_b = 0;
  // Why the change was requested (kBwReason*); informational.
  int64_t reason = kBwReasonNone;
};

// Hypercall status codes (mirroring negative-errno kernel conventions).
constexpr int64_t kHypercallOk = 0;
constexpr int64_t kHypercallAgain = -11;         // -EAGAIN: transient failure, retry.
constexpr int64_t kHypercallNoBandwidth = -28;   // -ENOSPC: admission rejected.
constexpr int64_t kHypercallInvalid = -22;       // -EINVAL.
constexpr int64_t kHypercallNotSupported = -38;  // -ENOSYS: scheduler lacks cross-layer support.

}  // namespace rtvirt

#endif  // SRC_HV_HYPERCALL_H_
