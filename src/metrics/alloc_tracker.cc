#include "src/metrics/alloc_tracker.h"

namespace rtvirt {

void AllocTracker::Start(TimeNs stop) {
  last_runtime_.assign(machine_->num_vms(), 0);
  for (int i = 0; i < machine_->num_vms(); ++i) {
    last_runtime_[i] = machine_->vm(i)->TotalRuntime();
  }
  machine_->sim()->After(window_, this, 0, static_cast<uint64_t>(stop));
}

void AllocTracker::OnEvent(uint32_t /*kind*/, uint64_t payload) {
  TimeNs stop = static_cast<TimeNs>(payload);
  TimeNs now = machine_->sim()->Now();
  Row row;
  row.time = now;
  last_runtime_.resize(machine_->num_vms(), 0);  // VMs may appear mid-run.
  for (int i = 0; i < machine_->num_vms(); ++i) {
    TimeNs total = machine_->vm(i)->TotalRuntime();
    row.vm_pct.push_back(100.0 * static_cast<double>(total - last_runtime_[i]) /
                         static_cast<double>(window_));
    last_runtime_[i] = total;
  }
  rows_.push_back(std::move(row));
  if (now < stop) {
    machine_->sim()->After(window_, this, 0, payload);
  }
}

}  // namespace rtvirt
