// The tagger (paper Sec. 3.3): merges the sorted tuple streams of a
// partitioned plan into one logical stream, re-nests the tuples, and emits
// the XML document. Memory use depends only on the number of streams and
// the view-tree depth — one in-flight row per stream, one captured key per
// InstanceSpec, and the open-element stack — never on the database size.
//
// Each physical row may carry several node instances (a parent repeated
// next to each child in outer-join plans, a whole reduced class in reduced
// plans). The tagger expands rows into *logical instance rows* using the
// stream's InstanceSpecs, in document order, and merges logical rows across
// streams by the global interleaved key (L1, identity vars of level 1,
// L2, ...). Duplicate instances (same full key) are emitted once.
//
// Keys are encoded once per logical row with the engine's order-preserving
// codec (engine/key_codec.h), straight from the stream's wire bytes, so the
// merge, duplicate suppression and open-stack identity tests are byte
// comparisons. The executor sorts every stream with the same codec, so
// memcmp order is exactly the order in which the streams arrive.
#ifndef SILKROUTE_SILKROUTE_TAGGER_H_
#define SILKROUTE_SILKROUTE_TAGGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/tuple_stream.h"
#include "silkroute/sqlgen.h"
#include "silkroute/view_tree.h"
#include "xml/writer.h"

namespace silkroute::core {

struct TaggerStats {
  size_t instances_emitted = 0;
  size_t rows_consumed = 0;
  size_t duplicates_skipped = 0;
  size_t max_open_depth = 0;
  /// Ancestor elements that had to be opened without their own instance row
  /// (should be zero; indicates a stream invariant violation).
  size_t forced_ancestor_opens = 0;
  /// Peak simultaneously captured instances within one stream (bounded by
  /// the number of view-tree nodes, never by database size).
  size_t peak_buffered_tuples = 0;
};

class Tagger {
 public:
  struct StreamInput {
    const StreamSpec* spec = nullptr;
    engine::TupleStream* stream = nullptr;
  };

  struct Options {
    /// If non-empty, wrap the document in this element (RXL views whose
    /// root node repeats produce a forest otherwise).
    std::string document_element;
  };

  Tagger(const ViewTree* tree, xml::XmlWriter* writer, Options options);

  /// Consumes all streams and writes the document.
  Status Run(std::vector<StreamInput> streams);

  const TaggerStats& stats() const { return stats_; }

 private:
  struct Slot;         // one compiled InstanceSpec and its captured instance
  struct StreamState;  // runtime cursor per stream

  /// An encoded global key: the key_codec segments of every position,
  /// concatenated, and where each position's segment ends.
  struct Key {
    std::string bytes;
    std::vector<uint32_t> ends;

    /// The segment of position `p`.
    std::string_view Segment(size_t p) const {
      const size_t begin = p == 0 ? 0 : ends[p - 1];
      return std::string_view(bytes).substr(begin, ends[p] - begin);
    }
  };

  /// One open-stack entry; its key buffer is reused across instances.
  struct OpenElement {
    int node_id = -1;
    Key key;
  };

  /// Per view-tree node, resolved once at construction.
  struct NodeInfo {
    std::vector<int> chain;  // ancestor chain root..node
    /// The key positions that identify an instance: the labels up to the
    /// node's level and the node's identity variables.
    std::vector<size_t> identity_positions;
    /// Per kValue content item: whether its variable is an identity var.
    std::vector<bool> value_is_identity;
  };

  void BuildKeyLayout();
  Status Compile(const StreamInput& input, StreamState* s) const;
  void Refill(StreamState* s);
  void EncodeKey(const engine::WireRow& row, const Slot& slot,
                 Key* key) const;
  Status EmitInstance(int node_id, const Key& key,
                      const std::vector<engine::WireField>* values);
  Status EmitRowContent(int node_id,
                        const std::vector<engine::WireField>* values,
                        bool opening);
  /// Writes one kValue field as escaped text; NULL writes nothing.
  Status EmitField(const engine::WireField& f);
  Status OpenElement_(int node_id, const Key& key,
                      const std::vector<engine::WireField>* values);
  bool SameInstanceAt(const Key& open, const Key& key, int node_id) const;

  const ViewTree* tree_;
  xml::XmlWriter* writer_;
  Options options_;
  TaggerStats stats_;

  // Global key layout.
  size_t num_positions_ = 0;
  std::vector<int> label_position_;           // level (1-based) -> position
  std::map<VarIndex, size_t> var_position_;   // identity var -> position
  std::vector<NodeInfo> nodes_;

  std::vector<OpenElement> stack_;  // entries [0, depth_) are open
  size_t depth_ = 0;
  std::string text_;  // numeric text staging
};

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_TAGGER_H_
