// Internal: shared model for the fully stop-the-world generational
// collectors (Serial, Parallel/ParallelOld). They differ only in worker
// thread counts; policy — scavenge on eden exhaustion, compacting full
// collection on old-generation exhaustion or promotion failure — is common.
#pragma once

#include "jvmsim/gc_model.hpp"

namespace jat::gc_detail {

class StwGenerationalModel : public GcModel {
 public:
  StwGenerationalModel(const JvmParams& params, const MachineSpec& machine,
                       int young_threads, int full_threads);

  CollectionEvent on_eden_full(HeapSim& heap) override;

 protected:
  int full_gc_threads() const override { return full_threads_; }

 private:
  int young_threads_;
  int full_threads_;
};

}  // namespace jat::gc_detail
