// The overlap transformation: turns an annotated trace into replayable
// Dimemas traces.
//
//   lower_original — the non-overlapped trace: every MPI event at its
//     original position, computation bursts reconstructed from virtual
//     clock gaps ("computation records specifying the length of the
//     original computation bursts ... and communication records specifying
//     the MPI message parameters").
//
//   transform — the overlapped trace. For every chunkable message pair
//     (see pairing.hpp) it applies the paper's four mechanisms:
//       * message chunking — the message becomes `chunks` independent
//         transfers with collision-free derived tags;
//       * advancing sends — each chunk is emitted as an immediate send at
//         the moment its final value was produced (measured pattern) or at
//         the uniform ideal instant;
//       * post-postponing receptions — chunk receives are posted at the
//         original receive call, and each chunk is waited at its first-use
//         instant (measured) or uniform ideal instant;
//       * double buffering — chunk transfers may use the eager protocol and
//         land before the receive is posted; with double buffering off
//         chunks are forced synchronous.
//     Buffer-reuse safety on the sender is preserved by a wait-all on the
//     previous message's chunk requests right before the first chunk of the
//     next message on the same buffer (two send buffers in rotation).
#pragma once

#include "overlap/options.hpp"
#include "trace/annotated.hpp"
#include "trace/trace.hpp"

namespace osim::overlap {

/// Lowers the annotated trace to the original (non-overlapped) trace.
trace::Trace lower_original(const trace::AnnotatedTrace& annotated);

/// Produces the overlapped trace under `options`. The result passes
/// lint::check_structure() whenever the input annotated trace is well
/// formed.
trace::Trace transform(const trace::AnnotatedTrace& annotated,
                       const OverlapOptions& options);

}  // namespace osim::overlap
