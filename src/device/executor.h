// PipelineExecutor: a small dependency-graph executor over streams.
//
// Nodes are device ops (copies, kernels, host callbacks expressed as plain
// callables); edges are events.  Each node is pinned to a stream; same-
// stream dependencies ride the stream's FIFO order for free, cross-stream
// dependencies become record/wait event pairs.  Nodes are emitted eagerly —
// add() enqueues immediately, so a transfer node on stream 0 runs while a
// compute node on stream 1 is still executing, which is the entire point:
// each device of a sharded SpMV wave (sparse/shard.h) runs a {transfer,
// compute} stream pair so its halo exchange overlaps its interior rows.
//
// The graph is acyclic by construction: a dependency must name an
// already-added node.  reset() forgets the graph between waves (e.g. RCI
// iterations) while keeping the streams — and therefore the virtual
// timeline — alive.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "device/event.h"
#include "device/stream.h"

namespace fastsc::device {

class PipelineExecutor {
 public:
  using NodeId = usize;

  /// Conventional stream roles for the two-stream default; any number of
  /// streams is allowed.
  static constexpr usize kTransferStream = 0;
  static constexpr usize kComputeStream = 1;

  explicit PipelineExecutor(DeviceContext& ctx, usize num_streams = 2);

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Add `body` as a node on stream `stream_index`, ordered after `deps`
  /// (node ids returned by earlier add() calls).  The body executes on the
  /// stream thread with metering attributed to that stream; it may call any
  /// synchronous device routine (launch, dblas, sparse, copy_h2d/d2h).
  NodeId add(usize stream_index, std::string label, std::function<void()> body,
             const std::vector<NodeId>& deps = {});

  /// Completion event of a node (e.g. to chain executors or hand to a
  /// caller-owned stream).
  [[nodiscard]] const Event& done(NodeId node) const;

  /// Block until every added node has retired; rethrows the first stream
  /// error.  The graph stays queryable until reset().
  void run();

  /// Forget the graph; streams and their virtual clocks persist.
  void reset();

  [[nodiscard]] Stream& stream(usize i) { return *streams_[i]; }
  [[nodiscard]] usize stream_count() const noexcept { return streams_.size(); }
  [[nodiscard]] usize node_count() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    Event completed;
    usize stream = 0;
    std::string label;
  };

  DeviceContext& ctx_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<Node> nodes_;
};

}  // namespace fastsc::device
