#include "silkroute/tagger.h"

#include <algorithm>

#include "engine/key_codec.h"

namespace silkroute::core {

/// One InstanceSpec resolved to its stream's columns, plus the instance it
/// captured: the encoded key and the node's text-content fields (views into
/// the stream's buffer). The key stays as the spec's last key after the
/// merge drains the slot, for duplicate suppression across adjacent rows.
struct Tagger::Slot {
  /// A global key position: a column of the row, or (col < 0) an encoded
  /// constant — the instance's label at its level, NULL elsewhere.
  struct KeySource {
    int col = -1;
    std::string constant;
  };

  int node_id = -1;
  bool fused = false;
  std::vector<std::pair<int, int64_t>> label_checks;  // (column, label)
  std::vector<int> null_cols;                         // must be NULL
  std::vector<KeySource> key_sources;                 // per position
  std::vector<int> value_cols;  // per kValue content item; -1 = NULL

  bool pending = false;  // holds an instance waiting to be merged
  bool has_key = false;  // `key` holds the last captured key
  Key key;
  std::vector<engine::WireField> values;

  bool Present(const engine::WireRow& row) const {
    for (const auto& [col, label] : label_checks) {
      const engine::WireField& f = row.fields[static_cast<size_t>(col)];
      if (f.tag != engine::WireTag::kInt64 || f.AsInt64() != label) {
        return false;
      }
    }
    for (int col : null_cols) {
      if (!row.fields[static_cast<size_t>(col)].is_null()) return false;
    }
    return true;
  }
};

struct Tagger::StreamState {
  engine::TupleStream* stream = nullptr;
  size_t arity = 0;
  std::vector<Slot> slots;  // one per InstanceSpec, document order

  engine::WireRow row;  // current physical row
  bool has_row = false;
  bool rows_done = false;
  size_t cursor = 0;        // next slot to try on `row`
  Key staged;               // key built for slot `cursor`
  bool stalled = false;     // `staged` waits for its occupied slot
  size_t live = 0;          // occupied slots
  Slot* current = nullptr;  // occupied slot with the least key, in `slots`
};

Tagger::Tagger(const ViewTree* tree, xml::XmlWriter* writer, Options options)
    : tree_(tree), writer_(writer), options_(std::move(options)) {
  BuildKeyLayout();
}

void Tagger::BuildKeyLayout() {
  const int max_level = tree_->MaxLevel();
  label_position_.assign(static_cast<size_t>(max_level) + 1, -1);
  size_t pos = 0;
  for (int j = 1; j <= max_level; ++j) {
    label_position_[static_cast<size_t>(j)] = static_cast<int>(pos++);
    for (const auto& v : tree_->IdentityVarsAtLevel(j)) {
      var_position_.emplace(v, pos++);
    }
  }
  num_positions_ = pos;

  nodes_.resize(tree_->num_nodes());
  for (const ViewTreeNode& node : tree_->nodes()) {
    NodeInfo& info = nodes_[static_cast<size_t>(node.id)];
    for (int id = node.id; id >= 0; id = tree_->node(id).parent) {
      info.chain.push_back(id);
    }
    std::reverse(info.chain.begin(), info.chain.end());
    for (int j = 1; j <= node.level(); ++j) {
      info.identity_positions.push_back(
          static_cast<size_t>(label_position_[static_cast<size_t>(j)]));
    }
    for (const auto& arg : node.args) {
      auto it = var_position_.find(arg.index);
      if (arg.identity && it != var_position_.end()) {
        info.identity_positions.push_back(it->second);
      }
    }
    for (const auto& item : node.content) {
      if (item.kind == ViewTreeNode::ContentItem::Kind::kValue) {
        info.value_is_identity.push_back(tree_->IsIdentityVar(item.value));
      }
    }
  }
  stack_.resize(static_cast<size_t>(max_level));
}

Status Tagger::Compile(const StreamInput& input, StreamState* s) const {
  s->stream = input.stream;
  const engine::RelSchema& schema = input.stream->schema();
  s->arity = schema.size();
  auto column_of = [&schema](const std::string& name) {
    auto idx = schema.Resolve("", name);
    return idx.ok() ? static_cast<int>(*idx) : -1;
  };
  const std::string null_segment(1, '\0');
  s->slots.resize(input.spec->instances.size());
  for (size_t i = 0; i < s->slots.size(); ++i) {
    const InstanceSpec& inst = input.spec->instances[i];
    const ViewTreeNode& node = tree_->node(inst.node_id);
    Slot& slot = s->slots[i];
    slot.node_id = inst.node_id;
    slot.fused = inst.fused;
    // Constant levels (no label column) match by construction.
    for (const auto& [level, expected] : inst.label_checks) {
      int col = column_of(LabelColumnName(level));
      if (col >= 0) slot.label_checks.emplace_back(col, expected);
    }
    for (int level : inst.null_levels) {
      int col = column_of(LabelColumnName(level));
      if (col >= 0) slot.null_cols.push_back(col);
    }
    slot.key_sources.assign(num_positions_, {-1, null_segment});
    for (size_t j = 1; j <= inst.path_labels.size(); ++j) {
      std::string& label = slot.key_sources[static_cast<size_t>(
          label_position_[j])].constant;
      label.clear();
      engine::EncodeValue(Value::Int64(inst.path_labels[j - 1]), &label);
    }
    for (const auto& v : inst.key_vars) {
      auto pos = var_position_.find(v);
      if (pos != var_position_.end()) {
        slot.key_sources[pos->second].col = column_of(v.ColumnName());
      }
    }
    for (const auto& item : node.content) {
      // Occurrences of a fused node are tracked in a 64-bit mask.
      if (item.occurrence >= 64) {
        return Status::Unimplemented("node " + node.tag +
                                     " fuses more than 64 templates");
      }
      if (item.kind == ViewTreeNode::ContentItem::Kind::kValue) {
        slot.value_cols.push_back(column_of(item.value.ColumnName()));
      }
    }
    slot.values.resize(slot.value_cols.size());
  }
  return Status::OK();
}

void Tagger::EncodeKey(const engine::WireRow& row, const Slot& slot,
                       Key* key) const {
  key->bytes.clear();
  key->ends.resize(num_positions_);
  for (size_t p = 0; p < num_positions_; ++p) {
    const Slot::KeySource& source = slot.key_sources[p];
    if (source.col < 0) {
      key->bytes += source.constant;
    } else {
      engine::EncodeWireField(row.fields[static_cast<size_t>(source.col)],
                              &key->bytes);
    }
    key->ends[p] = static_cast<uint32_t>(key->bytes.size());
  }
}

/// Fills slots by expanding physical rows, stopping when a slot it needs is
/// still occupied (the occupied instance sorts no later, so the merge will
/// drain it first; the row keeps the key it built) or when rows run out.
/// Then points `current` at the occupied slot with the least key.
void Tagger::Refill(StreamState* s) {
  while (!s->rows_done) {
    if (!s->has_row) {
      // A corrupt or short row ends the stream, like TupleStream::Next().
      if (!s->stream->NextRow(&s->row) || s->row.fields.size() != s->arity) {
        s->rows_done = true;
        break;
      }
      s->has_row = true;
      s->cursor = 0;
      ++stats_.rows_consumed;
    }
    for (; s->cursor < s->slots.size(); ++s->cursor) {
      Slot& slot = s->slots[s->cursor];
      if (!s->stalled) {
        if (!slot.Present(s->row)) continue;
        EncodeKey(s->row, slot, &s->staged);
        // Fused instances must pass through equal-key repeats: each rule's
        // row contributes values that merge into the one element.
        if (!slot.fused && slot.has_key && slot.key.bytes == s->staged.bytes) {
          ++stats_.duplicates_skipped;
          continue;
        }
      }
      s->stalled = slot.pending;
      if (s->stalled) break;
      std::swap(slot.key, s->staged);
      for (size_t v = 0; v < slot.values.size(); ++v) {
        const int col = slot.value_cols[v];
        slot.values[v] = col < 0 ? engine::WireField{}
                                 : s->row.fields[static_cast<size_t>(col)];
      }
      slot.pending = slot.has_key = true;
      stats_.peak_buffered_tuples =
          std::max(stats_.peak_buffered_tuples, ++s->live);
    }
    if (s->stalled) break;
    s->has_row = false;  // row fully expanded; fetch the next one
  }
  s->current = nullptr;
  for (Slot& slot : s->slots) {
    if (slot.pending &&
        (s->current == nullptr || slot.key.bytes < s->current->key.bytes)) {
      s->current = &slot;
    }
  }
}

bool Tagger::SameInstanceAt(const Key& open, const Key& key,
                            int node_id) const {
  for (size_t p : nodes_[static_cast<size_t>(node_id)].identity_positions) {
    if (open.Segment(p) != key.Segment(p)) return false;
  }
  return true;
}

Status Tagger::EmitRowContent(int node_id,
                              const std::vector<engine::WireField>* values,
                              bool opening) {
  const ViewTreeNode& node = tree_->node(node_id);
  const std::vector<bool>& value_is_identity =
      nodes_[static_cast<size_t>(node_id)].value_is_identity;
  // Which fused occurrences does this row speak for? Those that supplied a
  // non-null value through a column of their own — shared identity columns
  // (e.g. the fused key itself used as a value) are filled by every rule
  // and don't mark an occurrence active. Ordinary nodes always emit text.
  uint64_t active = 0;
  if (values != nullptr && node.fused()) {
    size_t value_index = 0;
    for (const auto& item : node.content) {
      if (item.kind != ViewTreeNode::ContentItem::Kind::kValue) continue;
      if (!(*values)[value_index].is_null() &&
          !value_is_identity[value_index]) {
        active |= uint64_t{1} << item.occurrence;
      }
      ++value_index;
    }
  }
  size_t value_index = 0;
  for (const auto& item : node.content) {
    switch (item.kind) {
      case ViewTreeNode::ContentItem::Kind::kText:
        if (!node.fused() || ((active >> item.occurrence) & 1) != 0) {
          SILK_RETURN_IF_ERROR(writer_->Text(item.text));
        }
        break;
      case ViewTreeNode::ContentItem::Kind::kValue: {
        // Identity-backed values (shared across rules) print once, when
        // the element opens; rule-specific values print with their row.
        bool emit =
            opening || !node.fused() || !value_is_identity[value_index];
        if (emit && values != nullptr) {
          SILK_RETURN_IF_ERROR(EmitField((*values)[value_index]));
        }
        ++value_index;
        break;
      }
      case ViewTreeNode::ContentItem::Kind::kChild:
        break;  // children arrive as their own instances
    }
  }
  return Status::OK();
}

Status Tagger::EmitField(const engine::WireField& f) {
  if (f.is_null()) return Status::OK();
  std::string_view text = f.bytes;  // strings escape straight from the wire
  if (f.tag != engine::WireTag::kString) {
    text_.clear();
    if (f.tag == engine::WireTag::kInt64) {
      AppendInt64XmlText(f.AsInt64(), &text_);
    } else {
      AppendDoubleXmlText(f.AsDouble(), &text_);
    }
    text = text_;
  }
  return writer_->Text(text);
}

Status Tagger::OpenElement_(int node_id, const Key& key,
                            const std::vector<engine::WireField>* values) {
  SILK_RETURN_IF_ERROR(writer_->StartElement(tree_->node(node_id).tag));
  SILK_RETURN_IF_ERROR(EmitRowContent(node_id, values, /*opening=*/true));
  OpenElement& open = stack_[depth_++];
  open.node_id = node_id;
  open.key = key;  // copy-assign: reuses the entry's buffers
  stats_.max_open_depth = std::max(stats_.max_open_depth, depth_);
  ++stats_.instances_emitted;
  return Status::OK();
}

Status Tagger::EmitInstance(int node_id, const Key& key,
                            const std::vector<engine::WireField>* values) {
  const std::vector<int>& chain = nodes_[static_cast<size_t>(node_id)].chain;
  // Longest prefix of the open stack matching the chain (same node and same
  // instance identity).
  size_t keep = 0;
  while (keep < depth_ && keep < chain.size() &&
         stack_[keep].node_id == chain[keep] &&
         SameInstanceAt(stack_[keep].key, key, chain[keep])) {
    ++keep;
  }
  if (keep == chain.size()) {
    if (tree_->node(node_id).fused() && values != nullptr) {
      // Fusion: the element is already open; append this rule's content
      // (its literal text and non-null rule-specific values).
      return EmitRowContent(node_id, values, /*opening=*/false);
    }
    // Otherwise the instance (and its whole ancestor chain) is already
    // open: a duplicate.
    ++stats_.duplicates_skipped;
    return Status::OK();
  }
  for (; depth_ > keep; --depth_) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  // Open any missing ancestors (should not happen — ancestors' own
  // instances sort first in the merged stream).
  for (size_t i = keep; i + 1 < chain.size(); ++i) {
    ++stats_.forced_ancestor_opens;
    SILK_RETURN_IF_ERROR(OpenElement_(chain[i], key, nullptr));
    --stats_.instances_emitted;  // forced opens are not real instances
  }
  return OpenElement_(node_id, key, values);
}

Status Tagger::Run(std::vector<StreamInput> streams) {
  std::vector<StreamState> states(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    SILK_RETURN_IF_ERROR(Compile(streams[i], &states[i]));
    Refill(&states[i]);
  }

  if (!options_.document_element.empty()) {
    SILK_RETURN_IF_ERROR(writer_->StartElement(options_.document_element));
  }

  while (true) {
    // Pick the stream whose least pending key is smallest (ties: earliest).
    StreamState* best = nullptr;
    for (auto& s : states) {
      if (s.current == nullptr) continue;
      const std::string& key = s.current->key.bytes;
      if (best == nullptr || key < best->current->key.bytes) best = &s;
    }
    if (best == nullptr) break;
    Slot& slot = *best->current;
    slot.pending = false;
    --best->live;
    SILK_RETURN_IF_ERROR(EmitInstance(slot.node_id, slot.key, &slot.values));
    Refill(best);
  }

  for (; depth_ > 0; --depth_) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  if (!options_.document_element.empty()) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  return Status::OK();
}

}  // namespace silkroute::core
