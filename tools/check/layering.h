#ifndef TRANSEDGE_TOOLS_CHECK_LAYERING_H_
#define TRANSEDGE_TOOLS_CHECK_LAYERING_H_

#include <map>
#include <string>

#include "check/report.h"
#include "check/source.h"

namespace transedge::check {

/// Layering enforcement over the `#include` graph of `src/`, pinning the
/// ARCHITECTURE.md contract:
///
/// - `layer-order`: directories form bands — common < {crypto, txn,
///   storage, merkle} < sim < wire < core < workload — and a file may
///   only include its own band or below. `wire/` and `common/` staying
///   leaf-ward of `core/` falls out of this rule.
/// - `engine-isolation`: the six replica engines (consensus, batch
///   pipeline, 2PC coordinator, read-only service, Augustus baseline,
///   watch service) never include each other; they meet only through
///   `NodeContext` and the node's hooks.
/// - `consensus-seam`: files under `core/consensus/` reach only the
///   seam headers (`node_context.h`, `config.h`) and the shared pieces
///   (`batch_apply.h`, `footprint_index.h`) from `core/` — never the
///   node, system, client, or another engine.
/// - `external-include`: nothing in `src/` includes `bench/`, `tests/`,
///   `examples/`, or any `../` path.
/// - `include-cycle`: the file-level include graph must be acyclic.
void CheckLayering(const std::map<std::string, SourceFile>& files,
                   RunResult* result);

}  // namespace transedge::check

#endif  // TRANSEDGE_TOOLS_CHECK_LAYERING_H_
