// Delegating shims around the user-plugin interfaces the paper defines
// (IndexAccessor, IndexOperator, the mapper RecordStage, Reducer). Each shim
// forwards every virtual method to the wrapped object unchanged and times
// the hot calls into a layer of layer_clock.h, so a traced run computes the
// same outputs, plans and simulated times as an untraced one.
#ifndef PERFBENCH_WORKER_SHIMS_H_
#define PERFBENCH_WORKER_SHIMS_H_

#include <cstdint>

#include "efind/index_operator.h"

namespace perfbench {

/// A copy of `conf` whose mapper, reducer, operators and accessors are all
/// wrapped in timing shims. An accessor with the `BatchedLookupIndex`
/// capability keeps it, so the batched lookup driver still engages.
efind::IndexJobConf TraceConf(const efind::IndexJobConf& conf);

/// Calls into batched store handles, counted by the shims.
struct StoreCallCounts {
  uint64_t submits = 0;
  uint64_t flushes = 0;
};
StoreCallCounts GetStoreCallCounts();

}  // namespace perfbench

#endif  // PERFBENCH_WORKER_SHIMS_H_
