#include "query/segment_executor.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "query/filter_evaluator.h"
#include "realtime/upsert_meta.h"
#include "startree/star_tree.h"

namespace pinot {

namespace {

constexpr uint32_t kMissingColumnId = 0xffffffff;

// Maximum number of dictionary ids we are willing to expand a range
// predicate into for star-tree traversal before falling back to raw
// execution.
constexpr size_t kMaxStarTreeIdExpansion = 65536;

// Reads the full value of a column for one document (dictionary decode).
Value ReadDocValue(const ColumnReader& column, uint32_t doc,
                   std::vector<uint32_t>* scratch) {
  if (column.spec().single_value) {
    return column.dictionary().ValueAt(
        static_cast<int>(column.GetDictId(doc)));
  }
  column.GetDictIds(doc, scratch);
  const Dictionary& dict = column.dictionary();
  switch (dict.storage()) {
    case Dictionary::Storage::kInt64: {
      std::vector<int64_t> out;
      out.reserve(scratch->size());
      for (uint32_t id : *scratch) out.push_back(dict.Int64At(id));
      return out;
    }
    case Dictionary::Storage::kDouble: {
      std::vector<double> out;
      out.reserve(scratch->size());
      for (uint32_t id : *scratch) out.push_back(dict.DoubleAt(id));
      return out;
    }
    case Dictionary::Storage::kString: {
      std::vector<std::string> out;
      out.reserve(scratch->size());
      for (uint32_t id : *scratch) out.push_back(dict.StringAt(id));
      return out;
    }
  }
  return Value{};
}

// One aggregation bound to a segment column (or to a constant default when
// the segment predates the column).
struct BoundAggregation {
  AggregationType type = AggregationType::kCount;
  const ColumnReader* column = nullptr;  // Null for COUNT(*) / missing col.
  bool count_star = false;
  double default_double = 0;             // Missing column: constant value.
  Value default_value;

  void Accumulate(uint32_t doc, AggState* state,
                  std::vector<uint32_t>* scratch) const {
    switch (type) {
      case AggregationType::kCount:
        ++state->count;
        return;
      case AggregationType::kSum:
      case AggregationType::kMin:
      case AggregationType::kMax:
      case AggregationType::kAvg: {
        double v = default_double;
        if (column != nullptr) {
          v = column->dictionary().DoubleValueAt(
              static_cast<int>(column->GetDictId(doc)));
        }
        state->AddDouble(v);
        return;
      }
      case AggregationType::kDistinctCount: {
        DistinctSet* distinct = state->MutableDistinct();
        if (column == nullptr) {
          AddValueToDistinct(default_value, distinct);
          ++state->count;
          return;
        }
        const Dictionary& dict = column->dictionary();
        if (column->spec().single_value) {
          AddDictIdToDistinct(dict, column->GetDictId(doc), distinct);
        } else {
          column->GetDictIds(doc, scratch);
          for (uint32_t id : *scratch) {
            AddDictIdToDistinct(dict, id, distinct);
          }
        }
        ++state->count;
        return;
      }
    }
  }

  static void AddDictIdToDistinct(const Dictionary& dict, uint32_t id,
                                  DistinctSet* distinct) {
    switch (dict.storage()) {
      case Dictionary::Storage::kInt64:
        distinct->AddInt64(dict.Int64At(static_cast<int>(id)));
        return;
      case Dictionary::Storage::kDouble:
        distinct->AddDouble(dict.DoubleAt(static_cast<int>(id)));
        return;
      case Dictionary::Storage::kString:
        distinct->AddString(dict.StringAt(static_cast<int>(id)));
        return;
    }
  }

  static void AddValueToDistinct(const Value& v, DistinctSet* distinct) {
    if (const auto* i = std::get_if<int64_t>(&v)) {
      distinct->AddInt64(*i);
    } else if (const auto* d = std::get_if<double>(&v)) {
      distinct->AddDouble(*d);
    } else if (const auto* s = std::get_if<std::string>(&v)) {
      distinct->AddString(*s);
    }
  }
};

Status BindAggregations(const SegmentInterface& segment, const Query& query,
                        std::vector<BoundAggregation>* out) {
  const Schema& schema = segment.schema();
  for (const auto& spec : query.aggregations) {
    BoundAggregation bound;
    bound.type = spec.type;
    if (spec.column.empty()) {
      if (spec.type != AggregationType::kCount) {
        return Status::InvalidArgument("aggregation requires a column: " +
                                       spec.ToString());
      }
      bound.count_star = true;
    } else {
      const int field_index = schema.IndexOf(spec.column);
      if (field_index < 0) {
        return Status::NotFound("unknown aggregation column: " + spec.column);
      }
      const FieldSpec& field = schema.field(field_index);
      if (spec.type != AggregationType::kCount &&
          spec.type != AggregationType::kDistinctCount) {
        if (field.type == DataType::kString) {
          return Status::InvalidArgument(
              "numeric aggregation on string column: " + spec.column);
        }
        if (!field.single_value) {
          return Status::InvalidArgument(
              "numeric aggregation on multi-value column: " + spec.column);
        }
      }
      bound.column = segment.GetColumn(spec.column);
      if (bound.column == nullptr) {
        bound.default_value = schema.EffectiveDefault(field_index);
        bound.default_double = ValueToDouble(bound.default_value);
      }
    }
    out->push_back(std::move(bound));
  }
  return Status::OK();
}

// --- Group-by helpers ------------------------------------------------------

// Per-segment group keys are raw dictionary-id bytes (fast); they are
// re-encoded into value-based keys before leaving the segment so results
// merge correctly across segments.
void AppendIdToKey(uint32_t id, std::string* key) {
  char bytes[4];
  std::memcpy(bytes, &id, 4);
  key->append(bytes, 4);
}

struct GroupByColumn {
  const ColumnReader* column = nullptr;  // Null -> missing (default value).
  Value default_value;
  bool single_value = true;
};

// Decodes a dict-id key back into group values.
std::vector<Value> DecodeDictIdKey(const std::string& key,
                                   const std::vector<GroupByColumn>& columns) {
  std::vector<Value> values;
  values.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    uint32_t id;
    std::memcpy(&id, key.data() + i * 4, 4);
    if (columns[i].column == nullptr || id == kMissingColumnId) {
      values.push_back(columns[i].default_value);
    } else {
      values.push_back(
          columns[i].column->dictionary().ValueAt(static_cast<int>(id)));
    }
  }
  return values;
}

using LocalGroups = std::unordered_map<std::string, std::vector<AggState>>;

// Emits one (doc, group-key) contribution; recursion handles multi-value
// group columns by exploding every entry combination.
template <typename Fn>
void ForEachGroupKey(const std::vector<GroupByColumn>& columns, uint32_t doc,
                     size_t index, std::string* key,
                     std::vector<std::vector<uint32_t>>* scratch, Fn&& fn) {
  if (index == columns.size()) {
    fn(*key);
    return;
  }
  const GroupByColumn& gb = columns[index];
  const size_t key_size = key->size();
  if (gb.column == nullptr) {
    AppendIdToKey(kMissingColumnId, key);
    ForEachGroupKey(columns, doc, index + 1, key, scratch, fn);
    key->resize(key_size);
    return;
  }
  if (gb.single_value) {
    AppendIdToKey(gb.column->GetDictId(doc), key);
    ForEachGroupKey(columns, doc, index + 1, key, scratch, fn);
    key->resize(key_size);
    return;
  }
  std::vector<uint32_t>& ids = (*scratch)[index];
  gb.column->GetDictIds(doc, &ids);
  if (ids.empty()) {
    AppendIdToKey(kMissingColumnId, key);
    ForEachGroupKey(columns, doc, index + 1, key, scratch, fn);
    key->resize(key_size);
    return;
  }
  for (uint32_t id : ids) {
    AppendIdToKey(id, key);
    ForEachGroupKey(columns, doc, index + 1, key, scratch, fn);
    key->resize(key_size);
  }
}

// Re-encodes one group (dict-id key already decoded to values) into the
// value-keyed per-segment output, merging states when the group exists.
void MergeGroupInto(const std::vector<Value>& values,
                    std::vector<AggState>&& states, PartialResult* out) {
  out->groups.EnsureArity(values.size(), states.size());
  out->groups.AddGroup(values, std::move(states));
}

void FlushLocalGroups(const std::vector<GroupByColumn>& columns,
                      LocalGroups&& local, PartialResult* out) {
  for (auto& [key, states] : local) {
    MergeGroupInto(DecodeDictIdKey(key, columns), std::move(states), out);
  }
}

// --- Batched scan path -----------------------------------------------------
//
// Block-at-a-time execution over the raw scan pipeline: the DocIdSet hands
// out blocks of <= kDocIdBlockSize ascending doc ids, each referenced
// column's dict ids are bulk-decoded once per block (word-at-a-time bit
// unpacking), and aggregation kernels run over the decoded arrays.

// DISTINCTCOUNT needs per-document, per-value dictionary access (and
// multi-value explosion), so it stays on the per-doc path.
bool AggsBatchable(const std::vector<BoundAggregation>& bound) {
  for (const auto& b : bound) {
    if (b.type == AggregationType::kDistinctCount) return false;
  }
  return true;
}

// Decodes the single-value dict ids of every registered column exactly once
// per block; kernels index into the shared decoded buffers.
class BlockDecoder {
 public:
  int AddColumn(const ColumnReader* column) {
    for (size_t s = 0; s < columns_.size(); ++s) {
      if (columns_[s] == column) return static_cast<int>(s);
    }
    columns_.push_back(column);
    buffers_.emplace_back(kDocIdBlockSize);
    return static_cast<int>(columns_.size()) - 1;
  }

  void Decode(const DocIdBlock& block) {
    for (size_t s = 0; s < columns_.size(); ++s) {
      if (block.contiguous()) {
        columns_[s]->GetDictIdRange(block.begin, block.count,
                                    buffers_[s].data());
      } else {
        columns_[s]->GetDictIdBatch(block.docs, block.count,
                                    buffers_[s].data());
      }
    }
  }

  const uint32_t* ids(int slot) const { return buffers_[slot].data(); }

 private:
  std::vector<const ColumnReader*> columns_;
  std::vector<std::vector<uint32_t>> buffers_;
};

// Memoized dict-id -> double tables, one per referenced column: metric
// decode becomes an array load instead of a per-doc dictionary dispatch.
class ValueTableCache {
 public:
  const double* TableFor(const ColumnReader& column) {
    auto [it, inserted] = tables_.try_emplace(&column);
    if (inserted) {
      const Dictionary& dict = column.dictionary();
      auto table = std::make_unique<std::vector<double>>();
      table->reserve(static_cast<size_t>(dict.size()));
      for (int id = 0; id < dict.size(); ++id) {
        table->push_back(dict.DoubleValueAt(id));
      }
      it->second = std::move(table);
    }
    return it->second->data();
  }

 private:
  std::unordered_map<const ColumnReader*, std::unique_ptr<std::vector<double>>>
      tables_;
};

// Decoded-buffer binding of one batchable aggregation.
struct AggKernel {
  int slot = -1;                  // BlockDecoder slot; -1 for COUNT/missing.
  const double* table = nullptr;  // Null for COUNT and missing columns.
};

std::vector<AggKernel> BindAggKernels(const std::vector<BoundAggregation>& bound,
                                      BlockDecoder* decoder,
                                      ValueTableCache* tables) {
  std::vector<AggKernel> kernels(bound.size());
  for (size_t i = 0; i < bound.size(); ++i) {
    if (bound[i].type == AggregationType::kCount) continue;
    if (bound[i].column != nullptr) {
      kernels[i].slot = decoder->AddColumn(bound[i].column);
      kernels[i].table = tables->TableFor(*bound[i].column);
    }
  }
  return kernels;
}

void ExecuteAggBatched(const std::vector<BoundAggregation>& bound,
                       const DocIdSet& docs, std::vector<AggState>* states,
                       uint64_t* scanned) {
  BlockDecoder decoder;
  ValueTableCache tables;
  const std::vector<AggKernel> kernels = BindAggKernels(bound, &decoder, &tables);
  docs.ForEachBlock([&](const DocIdBlock& block) {
    *scanned += block.count;
    decoder.Decode(block);
    for (size_t i = 0; i < bound.size(); ++i) {
      AggState& st = (*states)[i];
      if (bound[i].type == AggregationType::kCount) {
        st.count += block.count;
        continue;
      }
      if (kernels[i].table == nullptr) {
        // Missing column: the schema default, once per doc (kept as
        // repeated adds so the float result is a doc-order sum).
        for (uint32_t j = 0; j < block.count; ++j) {
          st.AddDouble(bound[i].default_double);
        }
        continue;
      }
      const uint32_t* ids = decoder.ids(kernels[i].slot);
      const double* table = kernels[i].table;
      double sum = st.sum;
      double mn = st.min;
      double mx = st.max;
      for (uint32_t j = 0; j < block.count; ++j) {
        const double v = table[ids[j]];
        sum += v;
        if (v < mn) mn = v;
        if (v > mx) mx = v;
      }
      st.sum = sum;
      st.min = mn;
      st.max = mx;
      st.count += block.count;
    }
  });
}

// --- Packed group-by -------------------------------------------------------

// 64-bit finalizer (splitmix64) for the radix shard probing tables.
inline uint64_t MixHash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

constexpr uint32_t kNoGroup = 0xffffffff;

// Packed key spaces of at most this many slots use a dense direct-indexed
// group table (4 MB of slots); larger ones use the radix shards.
constexpr uint64_t kDenseGroupByMaxSlots = uint64_t{1} << 20;

// Packed keys apply when every group column is single-value and the summed
// dict-id bit widths fit in one uint64 (missing and cardinality-1 columns
// contribute zero bits).
bool PackedGroupByEligible(const std::vector<GroupByColumn>& group_columns) {
  int bits = 0;
  for (const auto& gb : group_columns) {
    if (!gb.single_value) return false;
    if (gb.column == nullptr) continue;
    const int card = gb.column->dictionary().size();
    bits += FixedBitVector::BitsFor(
        card > 0 ? static_cast<uint32_t>(card - 1) : 0);
  }
  return bits <= 64;
}

// Number of radix partitions for the sharded packed-key path. Keys are
// partitioned by their low kRadixShardBits bits (dict ids are dense, so low
// bits spread groups evenly); each shard owns a private linear-probing
// table roughly 1/64th the total cardinality, so probes stay cache-resident
// and growth rehashes one small shard at a time instead of stalling the
// whole scan behind a full-table rehash.
constexpr int kRadixShardBits = 6;
constexpr size_t kRadixShards = size_t{1} << kRadixShardBits;
// Below this many groups the shard tables are cache-resident and the
// counting-sort probe ordering is pure overhead; probe in doc order.
constexpr size_t kRadixSortThreshold = 16384;

// Appends the key fragment AppendGroupKeyValue would produce for
// dictionary entry `id`, without copying a string into a Value.
void AppendDictIdKeyFragment(const Dictionary& dict, uint32_t id,
                             std::string* key) {
  switch (dict.storage()) {
    case Dictionary::Storage::kInt64:
      AppendGroupKeyValue(Value{dict.Int64At(static_cast<int>(id))}, key);
      return;
    case Dictionary::Storage::kDouble:
      AppendGroupKeyValue(Value{dict.DoubleAt(static_cast<int>(id))}, key);
      return;
    case Dictionary::Storage::kString:
      AppendStringGroupKeyValue(dict.StringAt(static_cast<int>(id)), key);
      return;
  }
}

void ExecutePackedGroupBy(const std::vector<BoundAggregation>& bound,
                          const std::vector<GroupByColumn>& group_columns,
                          const DocIdSet& docs, TraceSpan* span,
                          uint64_t* scanned, PartialResult* out) {
  BlockDecoder decoder;
  ValueTableCache tables;
  const size_t num_aggs = bound.size();
  const std::vector<AggKernel> kernels = BindAggKernels(bound, &decoder, &tables);

  // Key layout: concatenated dict-id bit fields, one per group column.
  struct PackedCol {
    int slot = -1;  // -1: constant contribution (missing or cardinality 1).
    int shift = 0;
    uint64_t mask = 0;
  };
  std::vector<PackedCol> packed(group_columns.size());
  int shift = 0;
  for (size_t i = 0; i < group_columns.size(); ++i) {
    const GroupByColumn& gb = group_columns[i];
    if (gb.column == nullptr) continue;
    const int card = gb.column->dictionary().size();
    const int bits = FixedBitVector::BitsFor(
        card > 0 ? static_cast<uint32_t>(card - 1) : 0);
    if (bits == 0) continue;
    packed[i].slot = decoder.AddColumn(gb.column);
    packed[i].shift = shift;
    packed[i].mask = ~uint64_t{0} >> (64 - bits);
    shift += bits;
  }
  const int total_bits = shift;

  // Groups are appended on first touch; states live in one flat array of
  // num_aggs entries per group.
  std::vector<uint64_t> group_keys;
  std::vector<AggState> group_states;
  auto add_group = [&](uint64_t key) -> uint32_t {
    const uint32_t g = static_cast<uint32_t>(group_keys.size());
    group_keys.push_back(key);
    group_states.resize(group_states.size() + num_aggs);
    return g;
  };

  // Table choice: dense direct-indexed table when the key space is small;
  // radix-partitioned per-shard probing tables otherwise.
  const bool dense = total_bits < 64 &&
                     (uint64_t{1} << total_bits) <= kDenseGroupByMaxSlots;
  if (span != nullptr) {
    span->Label("group_table",
                dense ? "dense"
                      : "radix(" + std::to_string(kRadixShards) + ")");
  }
  std::vector<uint32_t> dense_table;
  if (dense) dense_table.assign(size_t{1} << total_bits, kNoGroup);

  // Radix shards: each owns a private key/ordinal probing table.
  struct RadixShard {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> groups;
    size_t capacity = 0;
    size_t used = 0;
  };
  std::vector<RadixShard> shards(dense ? 0 : kRadixShards);
  auto shard_find_or_add = [&](RadixShard& shard, uint64_t key) -> uint32_t {
    if (shard.capacity == 0) {
      shard.capacity = 64;
      shard.keys.assign(shard.capacity, 0);
      shard.groups.assign(shard.capacity, kNoGroup);
    }
    size_t pos = MixHash64(key) & (shard.capacity - 1);
    while (true) {
      if (shard.groups[pos] == kNoGroup) {
        const uint32_t g = add_group(key);
        shard.keys[pos] = key;
        shard.groups[pos] = g;
        // Keep each shard's load factor under 0.7; growing rehashes only
        // this shard's slice of the key space.
        if (++shard.used * 10 >= shard.capacity * 7) {
          const size_t new_capacity = shard.capacity * 2;
          std::vector<uint64_t> new_keys(new_capacity, 0);
          std::vector<uint32_t> new_groups(new_capacity, kNoGroup);
          for (size_t s = 0; s < shard.capacity; ++s) {
            if (shard.groups[s] == kNoGroup) continue;
            size_t p = MixHash64(shard.keys[s]) & (new_capacity - 1);
            while (new_groups[p] != kNoGroup) p = (p + 1) & (new_capacity - 1);
            new_keys[p] = shard.keys[s];
            new_groups[p] = shard.groups[s];
          }
          shard.keys = std::move(new_keys);
          shard.groups = std::move(new_groups);
          shard.capacity = new_capacity;
        }
        return g;
      }
      if (shard.keys[pos] == key) return shard.groups[pos];
      pos = (pos + 1) & (shard.capacity - 1);
    }
  };

  std::vector<uint64_t> key_buf(kDocIdBlockSize);
  std::vector<uint32_t> group_idx(kDocIdBlockSize);
  std::vector<uint16_t> shard_order(kDocIdBlockSize);
  docs.ForEachBlock([&](const DocIdBlock& block) {
    *scanned += block.count;
    decoder.Decode(block);
    std::fill_n(key_buf.begin(), block.count, uint64_t{0});
    for (const auto& pc : packed) {
      if (pc.slot < 0) continue;
      const uint32_t* ids = decoder.ids(pc.slot);
      for (uint32_t j = 0; j < block.count; ++j) {
        key_buf[j] |= static_cast<uint64_t>(ids[j]) << pc.shift;
      }
    }

    // Key -> group ordinal. The radix path visits docs shard-by-shard
    // (counting sort on the low key bits) so consecutive probes share one
    // cache-resident shard table; group_idx is written per doc so the
    // accumulation below runs in doc order on every path (dense and radix
    // float results are bit-identical to a doc-order row oracle).
    if (dense) {
      for (uint32_t j = 0; j < block.count; ++j) {
        uint32_t& slot = dense_table[key_buf[j]];
        if (slot == kNoGroup) slot = add_group(key_buf[j]);
        group_idx[j] = slot;
      }
    } else {
      // Shard-ordered probing only pays once the combined tables outgrow
      // cache; while the table is small, probe in doc order and skip the
      // counting-sort passes.
      if (group_keys.size() >= kRadixSortThreshold) {
        std::array<uint32_t, kRadixShards + 1> offsets{};
        for (uint32_t j = 0; j < block.count; ++j) {
          ++offsets[(key_buf[j] & (kRadixShards - 1)) + 1];
        }
        for (size_t s = 0; s < kRadixShards; ++s) offsets[s + 1] += offsets[s];
        for (uint32_t j = 0; j < block.count; ++j) {
          shard_order[offsets[key_buf[j] & (kRadixShards - 1)]++] =
              static_cast<uint16_t>(j);
        }
        for (uint32_t t = 0; t < block.count; ++t) {
          const uint32_t j = shard_order[t];
          const uint64_t key = key_buf[j];
          group_idx[j] =
              shard_find_or_add(shards[key & (kRadixShards - 1)], key);
        }
      } else {
        for (uint32_t j = 0; j < block.count; ++j) {
          const uint64_t key = key_buf[j];
          group_idx[j] =
              shard_find_or_add(shards[key & (kRadixShards - 1)], key);
        }
      }
    }

    for (uint32_t j = 0; j < block.count; ++j) {
      AggState* states =
          &group_states[static_cast<size_t>(group_idx[j]) * num_aggs];
      for (size_t i = 0; i < num_aggs; ++i) {
        if (bound[i].type == AggregationType::kCount) {
          ++states[i].count;
        } else {
          states[i].AddDouble(kernels[i].table != nullptr
                                  ? kernels[i].table[decoder.ids(
                                        kernels[i].slot)[j]]
                                  : bound[i].default_double);
        }
      }
    }
  });

  // Flush: keys stay packed — each group's value key is encoded straight
  // from the dictionaries into a reused buffer and states move into the
  // flat GroupTable, so the flush performs no per-group allocations (the
  // old path built a std::vector<Value> + map node + key string per group,
  // which dominated million-group queries).
  GroupTable& table = out->groups;
  table.EnsureArity(group_columns.size(), num_aggs);
  table.Reserve(table.size() + group_keys.size());
  std::string key_scratch;
  for (size_t g = 0; g < group_keys.size(); ++g) {
    const uint64_t key = group_keys[g];
    auto id_of = [&](size_t i) {
      return packed[i].slot >= 0
                 ? static_cast<uint32_t>((key >> packed[i].shift) &
                                         packed[i].mask)
                 : 0;
    };
    key_scratch.clear();
    for (size_t i = 0; i < group_columns.size(); ++i) {
      const GroupByColumn& gb = group_columns[i];
      if (gb.column == nullptr) {
        AppendGroupKeyValue(gb.default_value, &key_scratch);
      } else {
        AppendDictIdKeyFragment(gb.column->dictionary(), id_of(i),
                                &key_scratch);
      }
    }
    AggState* dst = table.StatesAt(table.FindOrAdd(key_scratch));
    for (size_t i = 0; i < num_aggs; ++i) {
      dst[i].Merge(std::move(group_states[g * num_aggs + i]));
    }
  }
}

// --- Star-tree path --------------------------------------------------------

// Collects the AND-of-leaves predicate list from a filter tree; returns
// false when the tree has ORs across columns or nesting the star-tree
// traversal cannot serve.
bool FlattenConjunction(const FilterNode& node,
                        std::vector<const Predicate*>* out) {
  switch (node.kind) {
    case FilterNode::Kind::kLeaf:
      out->push_back(&node.predicate);
      return true;
    case FilterNode::Kind::kAnd:
      for (const auto& child : node.children) {
        if (!FlattenConjunction(child, out)) return false;
      }
      return true;
    case FilterNode::Kind::kOr:
      return false;
  }
  return false;
}

bool StarTreeEligible(const SegmentInterface& segment, const Query& query,
                      std::vector<const Predicate*>* predicates) {
  const StarTree* tree = segment.star_tree();
  if (tree == nullptr) return false;
  // Star-tree records pre-aggregate at build time; there is no way to
  // subtract a superseded document from a pre-aggregated cell, so upsert
  // segments always fall back to the raw plan.
  if (segment.valid_docs() != nullptr) return false;
  if (!query.IsAggregation()) return false;
  for (const auto& spec : query.aggregations) {
    switch (spec.type) {
      case AggregationType::kCount:
        if (!spec.column.empty() &&
            tree->MetricIndex(spec.column) < 0) {
          return false;
        }
        break;
      case AggregationType::kSum:
      case AggregationType::kMin:
      case AggregationType::kMax:
      case AggregationType::kAvg:
        if (tree->MetricIndex(spec.column) < 0) return false;
        break;
      case AggregationType::kDistinctCount:
        return false;  // Needs raw data (paper section 2).
    }
  }
  for (const auto& column : query.group_by) {
    if (tree->DimensionIndex(column) < 0) return false;
  }
  if (query.filter.has_value()) {
    if (!FlattenConjunction(*query.filter, predicates)) return false;
    for (const Predicate* pred : *predicates) {
      if (tree->DimensionIndex(pred->column) < 0) return false;
      if (pred->op == PredicateOp::kNotEq || pred->op == PredicateOp::kNotIn) {
        return false;
      }
    }
  }
  return true;
}

Status ExecuteWithStarTree(const SegmentInterface& segment,
                           const Query& query,
                           const std::vector<const Predicate*>& predicates,
                           PartialResult* out) {
  const StarTree& tree = *segment.star_tree();
  const int num_dims = static_cast<int>(tree.config().dimensions.size());

  // Build per-dimension specs: matching dict ids + group-by flags.
  std::vector<StarTree::DimensionSpec> specs(num_dims);
  for (const Predicate* pred : predicates) {
    const int dim = tree.DimensionIndex(pred->column);
    const ColumnReader* column = segment.GetColumn(pred->column);
    if (column == nullptr) {
      return Status::Internal("star-tree dimension column missing");
    }
    const DictIdMatch match = MatchDictIds(column->dictionary(), *pred);
    if (match.match_none) return Status::OK();  // Empty result.
    if (match.match_all) continue;
    StarTree::DimensionSpec& spec = specs[dim];
    std::vector<uint32_t> ids;
    if (match.contiguous) {
      if (static_cast<size_t>(match.hi - match.lo + 1) >
          kMaxStarTreeIdExpansion) {
        return Status::ResourceExhausted("star-tree id expansion too large");
      }
      for (int id = match.lo; id <= match.hi; ++id) {
        ids.push_back(static_cast<uint32_t>(id));
      }
    } else {
      ids = match.ids;
    }
    if (spec.has_predicate) {
      // Two predicates on the same dimension: intersect the id sets.
      std::vector<uint32_t> merged;
      std::set_intersection(spec.matching_ids.begin(),
                            spec.matching_ids.end(), ids.begin(), ids.end(),
                            std::back_inserter(merged));
      spec.matching_ids = std::move(merged);
      if (spec.matching_ids.empty()) return Status::OK();
    } else {
      spec.has_predicate = true;
      spec.matching_ids = std::move(ids);
    }
  }
  std::vector<int> group_dims;
  std::vector<GroupByColumn> group_columns;
  for (const auto& column : query.group_by) {
    const int dim = tree.DimensionIndex(column);
    specs[dim].group_by = true;
    group_dims.push_back(dim);
    GroupByColumn gb;
    gb.column = segment.GetColumn(column);
    gb.single_value = true;
    group_columns.push_back(gb);
  }

  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  tree.CollectRecordRanges(specs, &ranges);

  // Aggregate over the collected preaggregated records.
  std::vector<int> metric_indexes;
  for (const auto& spec : query.aggregations) {
    metric_indexes.push_back(
        spec.column.empty() ? -1 : tree.MetricIndex(spec.column));
  }

  // Predicate dims needing per-record re-checks.
  std::vector<int> check_dims;
  for (int d = 0; d < num_dims; ++d) {
    if (specs[d].has_predicate) check_dims.push_back(d);
  }

  const size_t num_aggs = query.aggregations.size();
  std::vector<AggState> totals(num_aggs);
  LocalGroups local;
  std::string key;
  uint64_t records_scanned = 0;

  for (const auto& [begin, end] : ranges) {
    for (uint32_t record = begin; record < end; ++record) {
      ++records_scanned;
      bool keep = true;
      for (int dim : check_dims) {
        const uint32_t value = tree.DimValue(dim, record);
        if (!std::binary_search(specs[dim].matching_ids.begin(),
                                specs[dim].matching_ids.end(), value)) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;

      std::vector<AggState>* states = &totals;
      if (!group_dims.empty()) {
        key.clear();
        for (int dim : group_dims) {
          AppendIdToKey(tree.DimValue(dim, record), &key);
        }
        auto [it, inserted] = local.try_emplace(key);
        if (inserted) it->second.resize(num_aggs);
        states = &it->second;
      }

      for (size_t a = 0; a < num_aggs; ++a) {
        AggState& state = (*states)[a];
        const int metric = metric_indexes[a];
        switch (query.aggregations[a].type) {
          case AggregationType::kCount:
            state.count += tree.Count(record);
            break;
          case AggregationType::kSum:
          case AggregationType::kAvg:
          case AggregationType::kMin:
          case AggregationType::kMax:
            state.AddPreaggregated(tree.MetricSum(metric, record),
                                   tree.MetricMin(metric, record),
                                   tree.MetricMax(metric, record),
                                   tree.Count(record));
            break;
          case AggregationType::kDistinctCount:
            break;  // Excluded by eligibility.
        }
      }
      out->stats.docs_matched += tree.Count(record);
    }
  }

  out->stats.star_tree_records_scanned += records_scanned;
  out->stats.used_star_tree = true;

  if (group_dims.empty()) {
    if (out->aggregates.empty()) {
      out->aggregates = std::move(totals);
    } else {
      for (size_t i = 0; i < totals.size(); ++i) {
        out->aggregates[i].Merge(std::move(totals[i]));
      }
    }
  } else {
    FlushLocalGroups(group_columns, std::move(local), out);
  }
  return Status::OK();
}

// --- Metadata-only path ----------------------------------------------------

// Pure eligibility check (shared by execution and EXPLAIN planning):
// unfiltered, ungrouped COUNT(*)/MIN/MAX answerable from segment metadata.
bool MetadataOnlyEligible(const SegmentInterface& segment,
                          const Query& query) {
  // Segment metadata counts every stored row, dead or alive; an upsert
  // segment must consult its validity bitmap, so COUNT(*)/MIN/MAX go
  // through the raw plan (which intersects with the valid-docs snapshot).
  if (segment.valid_docs() != nullptr) return false;
  if (!query.IsAggregation() || query.HasGroupBy() ||
      query.filter.has_value()) {
    return false;
  }
  for (const auto& spec : query.aggregations) {
    if (spec.type == AggregationType::kCount && spec.column.empty()) continue;
    if (spec.type == AggregationType::kMin ||
        spec.type == AggregationType::kMax) {
      const ColumnReader* column = segment.GetColumn(spec.column);
      if (column == nullptr || !column->spec().single_value ||
          column->spec().type == DataType::kString ||
          segment.num_docs() == 0) {
        return false;
      }
      continue;
    }
    return false;
  }
  return true;
}

// Executes the metadata-only plan; caller checked MetadataOnlyEligible.
void ExecuteMetadataOnlyPlan(const SegmentInterface& segment,
                             const Query& query, PartialResult* out) {
  std::vector<AggState> states(query.aggregations.size());
  for (size_t i = 0; i < query.aggregations.size(); ++i) {
    const auto& spec = query.aggregations[i];
    if (spec.type == AggregationType::kCount && spec.column.empty()) {
      states[i].count = segment.num_docs();
      continue;
    }
    const ColumnReader* column = segment.GetColumn(spec.column);
    const ColumnStats& stats = column->stats();
    states[i].AddPreaggregated(0, ValueToDouble(stats.min_value),
                               ValueToDouble(stats.max_value),
                               segment.num_docs());
    states[i].sum = 0;
  }
  if (out->aggregates.empty()) {
    out->aggregates = std::move(states);
  } else {
    for (size_t i = 0; i < states.size(); ++i) {
      out->aggregates[i].Merge(std::move(states[i]));
    }
  }
  out->stats.answered_from_metadata = true;
  out->stats.docs_matched += segment.num_docs();
}

// Mirrors ExecuteWithStarTree's ResourceExhausted guard without touching
// record data, so EXPLAIN reports the raw fallback the execution would
// actually take on oversized range expansions.
bool StarTreeExpansionFits(const SegmentInterface& segment,
                           const std::vector<const Predicate*>& predicates) {
  for (const Predicate* pred : predicates) {
    const ColumnReader* column = segment.GetColumn(pred->column);
    if (column == nullptr) return true;  // Execution errors out instead.
    const DictIdMatch match = MatchDictIds(column->dictionary(), *pred);
    if (match.match_none || match.match_all) continue;
    if (match.contiguous &&
        static_cast<size_t>(match.hi - match.lo + 1) >
            kMaxStarTreeIdExpansion) {
      return false;
    }
  }
  return true;
}

// --- Raw path: selection ---------------------------------------------------

// Compares entries `a` and `b` of `dict` the way CompareSelectionValues
// orders their values: by id where the dictionary is sorted (id order is
// value order), by value in a consuming segment's arrival-order one.
int CompareDictEntries(const Dictionary& dict, uint32_t a, uint32_t b) {
  if (dict.sorted()) return a < b ? -1 : (b < a ? 1 : 0);
  const int ia = static_cast<int>(a);
  const int ib = static_cast<int>(b);
  switch (dict.storage()) {
    case Dictionary::Storage::kInt64: {
      const int64_t x = dict.Int64At(ia);
      const int64_t y = dict.Int64At(ib);
      return x < y ? -1 : (y < x ? 1 : 0);
    }
    case Dictionary::Storage::kDouble: {
      const double x = dict.DoubleAt(ia);
      const double y = dict.DoubleAt(ib);
      return x < y ? -1 : (y < x ? 1 : 0);
    }
    case Dictionary::Storage::kString:
      return dict.StringAt(ia).compare(dict.StringAt(ib));
  }
  return 0;
}

// One SelectionOrder key bound to a segment column.
struct SelectionKey {
  const ColumnReader* column;
  bool desc;
};

// A segment's selection top-k under SelectionOrder: a bounded max-heap of
// doc ids whose top is the worst row kept, compared on dictionary entries,
// so only the survivors are ever decoded. The first key's entry is cached
// per candidate (decoded per block by the caller); ties read the next keys
// from the forward index. Columns the segment lacks hold one default
// value and decide nothing within it, so they are not keys here.
class SelectionTopK {
 public:
  SelectionTopK(std::vector<SelectionKey> keys, size_t k)
      : keys_(std::move(keys)),
        first_single_value_(!keys_.empty() &&
                            keys_[0].column->spec().single_value),
        k_(k) {
    heap_.reserve(k);
  }

  // The column whose dict ids Offer expects as `first_id`, or null.
  const ColumnReader* first_column() const {
    return first_single_value_ ? keys_[0].column : nullptr;
  }

  void Offer(uint32_t doc, uint32_t first_id) {
    const Candidate candidate{doc, first_id};
    auto before = [this](const Candidate& a, const Candidate& b) {
      return Before(a, b);
    };
    if (heap_.size() < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), before);
    } else if (k_ > 0 && Before(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), before);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), before);
    }
  }

  // The kept docs, best first.
  std::vector<uint32_t> SortedDocs() {
    std::sort_heap(heap_.begin(), heap_.end(),
                   [this](const Candidate& a, const Candidate& b) {
                     return Before(a, b);
                   });
    std::vector<uint32_t> docs;
    docs.reserve(heap_.size());
    for (const Candidate& c : heap_) docs.push_back(c.doc);
    return docs;
  }

 private:
  struct Candidate {
    uint32_t doc;
    uint32_t first_id;  // Valid when the first key is single-value.
  };

  bool Before(const Candidate& a, const Candidate& b) {
    size_t k = 0;
    if (first_single_value_) {
      const int c = CompareDictEntries(keys_[0].column->dictionary(),
                                       a.first_id, b.first_id);
      if (c != 0) return keys_[0].desc ? c > 0 : c < 0;
      k = 1;
    }
    for (; k < keys_.size(); ++k) {
      const int c = CompareOn(*keys_[k].column, a.doc, b.doc);
      if (c != 0) return keys_[k].desc ? c > 0 : c < 0;
    }
    return false;
  }

  // Single values by entry; multi-values entry by entry, then by length.
  int CompareOn(const ColumnReader& column, uint32_t a, uint32_t b) {
    const Dictionary& dict = column.dictionary();
    if (column.spec().single_value) {
      return CompareDictEntries(dict, column.GetDictId(a),
                                column.GetDictId(b));
    }
    column.GetDictIds(a, &scratch_a_);
    column.GetDictIds(b, &scratch_b_);
    const size_t n = std::min(scratch_a_.size(), scratch_b_.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = CompareDictEntries(dict, scratch_a_[i], scratch_b_[i]);
      if (c != 0) return c;
    }
    return scratch_a_.size() < scratch_b_.size()
               ? -1
               : (scratch_b_.size() < scratch_a_.size() ? 1 : 0);
  }

  std::vector<SelectionKey> keys_;
  bool first_single_value_;
  size_t k_;
  std::vector<Candidate> heap_;
  std::vector<uint32_t> scratch_a_;
  std::vector<uint32_t> scratch_b_;
};

// Selection: without ORDER BY the first LIMIT matching docs; with it the
// segment's top LIMIT rows under SelectionOrder. Either way at most
// min(LIMIT, matched) rows are decoded.
Status ExecuteSelection(const SegmentInterface& segment, const Query& query,
                        const DocIdSet& docs, PartialResult* out) {
  const Schema& schema = segment.schema();
  std::vector<std::string> columns;
  if (query.selection_columns.size() == 1 &&
      query.selection_columns[0] == "*") {
    columns = schema.FieldNames();
  } else {
    columns = query.selection_columns;
  }
  struct Projected {
    const ColumnReader* column;
    Value default_value;
  };
  std::vector<Projected> projected;
  for (const auto& name : columns) {
    const int field_index = schema.IndexOf(name);
    if (field_index < 0) {
      return Status::NotFound("unknown selection column: " + name);
    }
    Projected p;
    p.column = segment.GetColumn(name);
    if (p.column == nullptr) {
      p.default_value = schema.EffectiveDefault(field_index);
    }
    projected.push_back(std::move(p));
  }

  std::vector<uint32_t> scratch;
  auto emit = [&](uint32_t doc) {
    std::vector<Value> row;
    row.reserve(projected.size());
    for (const auto& p : projected) {
      if (p.column == nullptr) {
        row.push_back(p.default_value);
      } else {
        row.push_back(ReadDocValue(*p.column, doc, &scratch));
      }
    }
    out->selection_rows.push_back(std::move(row));
  };

  const size_t k = static_cast<size_t>(std::min<uint64_t>(
      static_cast<uint64_t>(query.limit), docs.Cardinality()));
  uint64_t scanned = 0;
  // An ORDER BY that names an unselected column is the broker's error to
  // report; until then the segment keeps the first rows.
  const std::optional<SelectionOrder> order = SelectionOrder::ForQuery(query);
  if (!order.has_value()) {
    size_t emitted = 0;
    docs.ForEachRange([&](uint32_t begin, uint32_t end) {
      for (uint32_t doc = begin; doc < end && emitted < k; ++doc, ++emitted) {
        ++scanned;
        emit(doc);
      }
    });
    out->stats.docs_scanned += scanned;
    return Status::OK();
  }

  std::vector<SelectionKey> keys;
  for (const SelectionOrder::Key& key : order->keys()) {
    const ColumnReader* column = projected[key.column].column;
    if (column != nullptr) keys.push_back({column, key.desc});
  }
  SelectionTopK top(std::move(keys), k);
  if (k > 0) {
    const ColumnReader* first = top.first_column();
    std::vector<uint32_t> first_ids(kDocIdBlockSize, 0);
    docs.ForEachBlock([&](const DocIdBlock& block) {
      scanned += block.count;
      if (first != nullptr) {
        if (block.contiguous()) {
          first->GetDictIdRange(block.begin, block.count, first_ids.data());
        } else {
          first->GetDictIdBatch(block.docs, block.count, first_ids.data());
        }
      }
      for (uint32_t j = 0; j < block.count; ++j) {
        top.Offer(block.contiguous() ? block.begin + j : block.docs[j],
                  first_ids[j]);
      }
    });
  }
  for (uint32_t doc : top.SortedDocs()) emit(doc);
  out->stats.docs_scanned += scanned;
  return Status::OK();
}

}  // namespace

bool CanUseStarTree(const SegmentInterface& segment, const Query& query) {
  std::vector<const Predicate*> predicates;
  return StarTreeEligible(segment, query, &predicates);
}

const char* SegmentPlanKindToString(SegmentPlanKind kind) {
  switch (kind) {
    case SegmentPlanKind::kMetadataOnly:
      return "metadata";
    case SegmentPlanKind::kStarTree:
      return "star-tree";
    case SegmentPlanKind::kRaw:
      return "raw";
  }
  return "unknown";
}

SegmentPlanKind PlanQueryOnSegment(const SegmentInterface& segment,
                                   const Query& query, TraceSpan* span) {
  if (MetadataOnlyEligible(segment, query)) {
    return SegmentPlanKind::kMetadataOnly;
  }
  {
    std::vector<const Predicate*> predicates;
    if (StarTreeEligible(segment, query, &predicates) &&
        StarTreeExpansionFits(segment, predicates)) {
      return SegmentPlanKind::kStarTree;
    }
  }
  if (span != nullptr && query.filter.has_value()) {
    // Report the per-column operator the raw plan would use.
    FilterEvaluator evaluator(segment, nullptr);
    std::vector<const FilterNode*> stack = {&*query.filter};
    while (!stack.empty()) {
      const FilterNode* node = stack.back();
      stack.pop_back();
      if (node->kind == FilterNode::Kind::kLeaf) {
        span->Label(
            "op:" + node->predicate.column,
            LeafStrategyToString(evaluator.ClassifyLeaf(node->predicate)));
      } else {
        for (const auto& child : node->children) stack.push_back(&child);
      }
    }
  }
  return SegmentPlanKind::kRaw;
}

Status ExecuteQueryOnSegment(const SegmentInterface& segment,
                             const Query& query, PartialResult* out,
                             TraceSpan* span) {
  // Receipt phase clock: advanced at each phase boundary so plan / filter /
  // scan / agg time is accounted unconditionally (a handful of steady-clock
  // reads per segment, TRACE or not).
  int64_t phase_mark = TraceSpan::NowMicros();
  // Upsert segments: snapshot the invalid-docs set once, up front. The
  // whole execution then sees one consistent validity view regardless of
  // concurrent invalidations on sealed segments.
  const ValidDocsTracker* tracker = segment.valid_docs();
  std::shared_ptr<const RoaringBitmap> invalid;
  uint64_t live_docs = segment.num_docs();
  if (tracker != nullptr) {
    invalid = tracker->InvalidSnapshot();
    if (invalid != nullptr) live_docs -= invalid->Cardinality();
    if (span != nullptr) {
      span->Label("upsert", "on");
      span->Annotate("valid_docs", static_cast<int64_t>(live_docs));
    }
  }
  out->total_docs += live_docs;
  out->stats.segments_queried += 1;

  // 1. Metadata-only plan.
  if (MetadataOnlyEligible(segment, query)) {
    if (span != nullptr) span->Label("plan", "metadata");
    const int64_t exec_mark = TraceSpan::NowMicros();
    out->receipt.plan_micros += exec_mark - phase_mark;
    ExecuteMetadataOnlyPlan(segment, query, out);
    out->receipt.agg_micros += TraceSpan::NowMicros() - exec_mark;
    return Status::OK();
  }

  // 2. Star-tree plan.
  {
    std::vector<const Predicate*> predicates;
    if (StarTreeEligible(segment, query, &predicates)) {
      TraceSpan star_span;
      if (span != nullptr) star_span = TraceSpan::Open("star-tree");
      const int64_t exec_mark = TraceSpan::NowMicros();
      out->receipt.plan_micros += exec_mark - phase_mark;
      const uint64_t records_before = out->stats.star_tree_records_scanned;
      Status st = ExecuteWithStarTree(segment, query, predicates, out);
      phase_mark = TraceSpan::NowMicros();
      out->receipt.agg_micros += phase_mark - exec_mark;
      // ResourceExhausted -> predicate expansion too large; fall through to
      // the raw plan.
      if (!st.IsQuotaExceeded() &&
          st.code() != StatusCode::kResourceExhausted) {
        if (span != nullptr) {
          span->Label("plan", "star-tree");
          star_span.Annotate(
              "records_scanned",
              static_cast<int64_t>(out->stats.star_tree_records_scanned -
                                   records_before));
          star_span.Close();
          span->AddChild(std::move(star_span));
        }
        return st;
      }
      if (span != nullptr) span->Label("star_tree_fallback", "id-expansion");
    }
  }

  // 3. Raw plan.
  if (span != nullptr) span->Label("plan", "raw");
  TraceSpan filter_span;
  if (span != nullptr) filter_span = TraceSpan::Open("filter");
  FilterEvaluator evaluator(segment, &out->stats);
  if (span != nullptr) evaluator.set_trace_span(&filter_span);
  // Upsert: bound the filter domain by the validity snapshot, so whatever
  // physical operators run, no superseded row can reach aggregation or
  // selection.
  std::optional<DocIdSet> valid_domain;
  if (tracker != nullptr && invalid != nullptr && !invalid->Empty()) {
    valid_domain = DocIdSet::FromBitmap(invalid->Not(segment.num_docs()),
                                        segment.num_docs());
  }
  const int64_t filter_mark = TraceSpan::NowMicros();
  out->receipt.plan_micros += filter_mark - phase_mark;
  PINOT_ASSIGN_OR_RETURN(
      DocIdSet docs,
      evaluator.Evaluate(query.filter,
                         valid_domain ? &*valid_domain : nullptr));
  out->receipt.filter_micros += TraceSpan::NowMicros() - filter_mark;
  out->stats.docs_matched += docs.Cardinality();
  if (span != nullptr) {
    filter_span.Annotate("docs_matched",
                         static_cast<int64_t>(docs.Cardinality()));
    filter_span.Close();
    span->AddChild(std::move(filter_span));
  }

  if (!query.IsAggregation()) {
    TraceSpan select_span;
    if (span != nullptr) select_span = TraceSpan::Open("selection");
    const int64_t scan_mark = TraceSpan::NowMicros();
    Status st = ExecuteSelection(segment, query, docs, out);
    out->receipt.scan_micros += TraceSpan::NowMicros() - scan_mark;
    if (span != nullptr) {
      select_span.Close();
      span->AddChild(std::move(select_span));
    }
    return st;
  }

  std::vector<BoundAggregation> bound;
  PINOT_RETURN_NOT_OK(BindAggregations(segment, query, &bound));

  if (!query.HasGroupBy()) {
    TraceSpan agg_span;
    if (span != nullptr) agg_span = TraceSpan::Open("aggregate");
    const int64_t agg_mark = TraceSpan::NowMicros();
    std::vector<AggState> states(bound.size());
    // COUNT-only queries need no per-document work.
    bool count_only = true;
    for (const auto& b : bound) {
      if (b.type != AggregationType::kCount) {
        count_only = false;
        break;
      }
    }
    if (count_only) {
      if (span != nullptr) agg_span.Label("kernel", "count-only");
      const int64_t matched = static_cast<int64_t>(docs.Cardinality());
      for (auto& state : states) state.count = matched;
    } else if (AggsBatchable(bound)) {
      if (span != nullptr) agg_span.Label("kernel", "batched");
      uint64_t scanned = 0;
      ExecuteAggBatched(bound, docs, &states, &scanned);
      out->stats.docs_scanned += scanned;
    } else {
      if (span != nullptr) agg_span.Label("kernel", "per-doc");
      std::vector<uint32_t> scratch;
      uint64_t scanned = 0;
      docs.ForEachRange([&](uint32_t begin, uint32_t end) {
        scanned += end - begin;
        for (uint32_t doc = begin; doc < end; ++doc) {
          for (size_t i = 0; i < bound.size(); ++i) {
            bound[i].Accumulate(doc, &states[i], &scratch);
          }
        }
      });
      out->stats.docs_scanned += scanned;
    }
    if (out->aggregates.empty()) {
      out->aggregates = std::move(states);
    } else {
      for (size_t i = 0; i < states.size(); ++i) {
        out->aggregates[i].Merge(std::move(states[i]));
      }
    }
    out->receipt.agg_micros += TraceSpan::NowMicros() - agg_mark;
    if (span != nullptr) {
      agg_span.Close();
      span->AddChild(std::move(agg_span));
    }
    return Status::OK();
  }

  // Group-by over raw documents.
  const Schema& schema = segment.schema();
  std::vector<GroupByColumn> group_columns;
  for (const auto& name : query.group_by) {
    const int field_index = schema.IndexOf(name);
    if (field_index < 0) {
      return Status::NotFound("unknown group-by column: " + name);
    }
    GroupByColumn gb;
    gb.column = segment.GetColumn(name);
    gb.single_value = schema.field(field_index).single_value;
    if (gb.column == nullptr) {
      gb.default_value = schema.EffectiveDefault(field_index);
    }
    group_columns.push_back(std::move(gb));
  }

  TraceSpan groupby_span;
  if (span != nullptr) groupby_span = TraceSpan::Open("group-by");
  const int64_t groupby_mark = TraceSpan::NowMicros();

  // Packed-key path: single-value group columns whose dict-id bit widths
  // sum to <= 64 bits skip string keys and the node-based hash map
  // entirely. The string-key path serves what packed keys cannot express:
  // multi-value columns, wider key spaces, and DISTINCTCOUNT.
  if (AggsBatchable(bound) && PackedGroupByEligible(group_columns)) {
    uint64_t scanned = 0;
    ExecutePackedGroupBy(bound, group_columns, docs,
                         span != nullptr ? &groupby_span : nullptr, &scanned,
                         out);
    out->stats.docs_scanned += scanned;
  } else {
    if (span != nullptr) groupby_span.Label("group_table", "string");
    LocalGroups local;
    std::string key;
    std::vector<std::vector<uint32_t>> mv_scratch(group_columns.size());
    std::vector<uint32_t> scratch;
    const size_t num_aggs = bound.size();
    uint64_t scanned = 0;
    docs.ForEachRange([&](uint32_t begin, uint32_t end) {
      scanned += end - begin;
      for (uint32_t doc = begin; doc < end; ++doc) {
        key.clear();
        ForEachGroupKey(group_columns, doc, 0, &key, &mv_scratch,
                        [&](const std::string& group_key) {
                          auto [it, inserted] = local.try_emplace(group_key);
                          if (inserted) it->second.resize(num_aggs);
                          for (size_t i = 0; i < num_aggs; ++i) {
                            bound[i].Accumulate(doc, &it->second[i], &scratch);
                          }
                        });
      }
    });
    out->stats.docs_scanned += scanned;
    FlushLocalGroups(group_columns, std::move(local), out);
  }
  out->receipt.agg_micros += TraceSpan::NowMicros() - groupby_mark;
  if (span != nullptr) {
    groupby_span.Close();
    span->AddChild(std::move(groupby_span));
  }
  return Status::OK();
}

}  // namespace pinot
