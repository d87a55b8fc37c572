#include "core/ngram.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/url_cluster.h"
#include "stats/hash.h"
#include "stats/parallel.h"

namespace jsoncdn::core {

namespace {

constexpr double kBackoffDiscount = 0.4;  // standard stupid-backoff alpha

}  // namespace

NgramModel::NgramModel(std::size_t max_context) : max_context_(max_context) {
  if (max_context == 0)
    throw std::invalid_argument("NgramModel: max_context must be >= 1");
  tables_.resize(max_context);
}

NgramModel::TokenId NgramModel::intern(std::string_view token) {
  const auto it = vocab_.find(token);  // heterogeneous: no temporary string
  if (it != vocab_.end()) return it->second;
  const auto id = static_cast<TokenId>(token_names_.size());
  token_names_.emplace_back(token);
  vocab_.emplace(token_names_.back(), id);
  return id;
}

std::string NgramModel::context_key(std::span<const TokenId> context) const {
  std::string key;
  key.reserve(context.size() * sizeof(TokenId));
  for (const TokenId id : context) {
    key.append(reinterpret_cast<const char*>(&id), sizeof(TokenId));
  }
  return key;
}

void NgramModel::observe_sequence(std::span<const std::string> tokens) {
  if (tokens.size() < 2) return;
  thaw();
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) ids.push_back(intern(t));

  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) ++transitions_;
    ++std::get<CountMap>(unigrams_)[ids[i]];
    // Transitions into position i from contexts of length 1..max_context_.
    for (std::size_t len = 1; len <= max_context_ && len <= i; ++len) {
      const std::span<const TokenId> context(&ids[i - len], len);
      ++std::get<CountMap>(tables_[len - 1][context_key(context)])[ids[i]];
    }
  }
}

void NgramModel::merge(const NgramModel& other) {
  if (other.max_context_ != max_context_)
    throw std::invalid_argument("NgramModel::merge: max_context mismatch");
  thaw();
  // Remap the other model's token ids into this vocabulary.
  std::vector<TokenId> remap(other.token_names_.size());
  for (std::size_t i = 0; i < other.token_names_.size(); ++i)
    remap[i] = intern(other.token_names_[i]);

  // `other` may be frozen, so read its counts in either form.
  const auto add = [&](Distribution& dst, const Distribution& src) {
    auto& counts = std::get<CountMap>(dst);
    if (const auto* ranked = std::get_if<Ranked>(&src)) {
      for (const auto& [id, count] : ranked->entries) counts[remap[id]] += count;
    } else {
      for (const auto& [id, count] : std::get<CountMap>(src))
        counts[remap[id]] += count;
    }
  };
  add(unigrams_, other.unigrams_);
  transitions_ += other.transitions_;

  std::vector<TokenId> context;
  for (std::size_t len = 1; len <= max_context_; ++len) {
    for (const auto& [key, next] : other.tables_[len - 1]) {
      context.resize(len);
      std::memcpy(context.data(), key.data(), key.size());
      for (auto& id : context) id = remap[id];
      add(tables_[len - 1][context_key(context)], next);
    }
  }
}

void NgramModel::freeze() {
  if (frozen_) return;
  const auto rank = [&](Distribution& d) {
    const auto& counts = std::get<CountMap>(d);
    Ranked ranked{{counts.begin(), counts.end()}, 0};
    std::sort(ranked.entries.begin(), ranked.entries.end(),
              [&](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return token_names_[a.first] < token_names_[b.first];  // determinism
              });
    for (const auto& [id, count] : ranked.entries) ranked.total += count;
    d = std::move(ranked);
  };
  for (auto& table : tables_)
    for (auto& [key, next] : table) rank(next);
  rank(unigrams_);
  frozen_ = true;
}

void NgramModel::thaw() {
  if (!frozen_) return;
  const auto unrank = [](Distribution& d) {
    const auto& entries = std::get<Ranked>(d).entries;
    d = CountMap(entries.begin(), entries.end());
  };
  for (auto& table : tables_)
    for (auto& [key, next] : table) unrank(next);
  unrank(unigrams_);
  frozen_ = false;
}

std::vector<NgramModel::Prediction> NgramModel::predict(
    std::span<const std::string> history, std::size_t k) const {
  if (!frozen_)
    throw std::logic_error(
        "NgramModel::predict: model changed since its last freeze()");
  std::vector<Prediction> out;
  if (k == 0) return out;

  // Resolve the history to ids; unseen tokens break any context containing
  // them, which backoff handles naturally.
  std::vector<TokenId> ids;
  ids.reserve(history.size());
  for (const auto& t : history) {
    const auto it = vocab_.find(t);
    if (it == vocab_.end()) {
      ids.clear();  // everything before an unknown token is unusable
      continue;
    }
    ids.push_back(it->second);
  }

  // Walks one ranked level, skipping tokens a longer context already
  // picked. It stops after the k-th pick, so it reads k + skipped entries.
  std::vector<TokenId> chosen;
  chosen.reserve(k);
  double level_scale = 1.0;
  const auto take = [&](const Distribution& d) {
    const auto& level = std::get<Ranked>(d);
    const auto total = static_cast<double>(level.total);
    for (const auto& [id, count] : level.entries) {
      if (out.size() >= k) break;
      if (std::find(chosen.begin(), chosen.end(), id) != chosen.end())
        continue;
      chosen.push_back(id);
      out.push_back(
          {token_names_[id], level_scale * static_cast<double>(count) / total});
    }
  };
  const std::size_t longest = std::min(max_context_, ids.size());
  for (std::size_t len = longest; len > 0 && out.size() < k; --len) {
    const std::span<const TokenId> context(&ids[ids.size() - len], len);
    const auto& table = tables_[len - 1];
    const auto it = table.find(context_key(context));
    if (it != table.end()) {
      take(it->second);
      level_scale *= kBackoffDiscount;
    }
  }
  // Final backoff: the global popularity prior.
  if (out.size() < k) take(unigrams_);
  return out;
}

bool is_train_client(std::string_view client) noexcept {
  const auto h =
      stats::fnv1a64(client, stats::fnv1a64_mix(NgramEvalConfig::seed));
  return static_cast<double>(h % 1'000'000) / 1e6 <
         NgramEvalConfig::train_fraction;
}

namespace {

// Evaluates the protocol over the view's extracted client flows. A flow
// record index is a view position; its URL is the only input it reads.
NgramAccuracy evaluate_flows(const std::vector<logs::ClientFlow>& flows,
                             const logs::TableView& view,
                             const NgramEvalConfig& config) {
  if (config.context_len == 0)
    throw std::invalid_argument("evaluate_ngram: context_len == 0");

  NgramAccuracy result;
  result.context_len = config.context_len;
  result.clustered = config.clustered;

  auto tokens_of = [&](const logs::ClientFlow& flow) {
    std::vector<std::string> tokens;
    tokens.reserve(flow.record_indices.size());
    for (const auto idx : flow.record_indices) {
      const std::string_view url = view.table().url(view[idx]);
      tokens.push_back(config.clustered ? cluster_url(url) : std::string(url));
    }
    return tokens;
  };

  std::vector<const logs::ClientFlow*> train_flows;
  std::vector<const logs::ClientFlow*> test_flows;
  for (const auto& flow : flows) {
    if (is_train_client(flow.client)) {
      ++result.train_clients;
      train_flows.push_back(&flow);
    } else {
      ++result.test_clients;
      test_flows.push_back(&flow);
    }
  }

  stats::ThreadPool pool(config.threads);

  // Sharded count-then-merge training. Shards are contiguous chunks of the
  // flow order and merge ascending, so the merged model carries exactly the
  // counts (and first-seen vocabulary order) of serial training.
  NgramModel model(config.context_len);
  {
    // Token extraction is per-flow independent: index-ordered parallel map.
    const auto train_tokens = stats::parallel_map<std::vector<std::string>>(
        pool, train_flows.size(),
        [&](std::size_t i) { return tokens_of(*train_flows[i]); });
    const std::size_t shards = stats::chunk_count(pool, train_flows.size());
    if (shards <= 1) {
      for (const auto& tokens : train_tokens) model.observe_sequence(tokens);
    } else {
      std::vector<NgramModel> shard_models(shards,
                                           NgramModel(config.context_len));
      stats::parallel_for(pool, train_flows.size(),
                          [&](std::size_t begin, std::size_t end,
                              std::size_t shard) {
                            for (std::size_t i = begin; i < end; ++i)
                              shard_models[shard].observe_sequence(
                                  train_tokens[i]);
                          });
      for (const auto& shard_model : shard_models) model.merge(shard_model);
    }
  }  // the tokens are dead once counted: freed before ranking reuses them
  model.freeze();

  const std::size_t max_k =
      *std::max_element(config.ks.begin(), config.ks.end());

  // Scoring shards accumulate integer hit counters and merge by addition —
  // order-insensitive, so accuracy is identical for any thread count.
  struct EvalAcc {
    std::array<std::uint64_t, NgramEvalConfig::ks.size()> hits{};
    std::uint64_t predictions = 0;
    void merge(const EvalAcc& other) {
      for (std::size_t i = 0; i < hits.size(); ++i) hits[i] += other.hits[i];
      predictions += other.predictions;
    }
  };
  const auto scored = stats::parallel_reduce<EvalAcc>(
      pool, test_flows.size(),
      [&](EvalAcc& acc, std::size_t begin, std::size_t end) {
        for (std::size_t f = begin; f < end; ++f) {
          const auto tokens = tokens_of(*test_flows[f]);
          for (std::size_t i = 1; i < tokens.size(); ++i) {
            const std::size_t ctx = std::min(config.context_len, i);
            const std::span<const std::string> history(&tokens[i - ctx], ctx);
            const auto predictions = model.predict(history, max_k);
            ++acc.predictions;
            for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
              const auto limit = std::min(config.ks[ki], predictions.size());
              for (std::size_t p = 0; p < limit; ++p) {
                if (predictions[p].token == tokens[i]) {
                  ++acc.hits[ki];
                  break;
                }
              }
            }
          }
        }
      });

  result.predictions = scored.predictions;
  for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
    result.accuracy_at[config.ks[ki]] =
        result.predictions == 0
            ? 0.0
            : static_cast<double>(scored.hits[ki]) /
                  static_cast<double>(result.predictions);
  }
  return result;
}

}  // namespace

NgramAccuracy evaluate_ngram(const logs::TableView& view,
                             const NgramEvalConfig& config) {
  const auto flows = logs::extract_client_flows(view, config.min_flow_requests);
  return evaluate_flows(flows, view, config);
}

}  // namespace jsoncdn::core
