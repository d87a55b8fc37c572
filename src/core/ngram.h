// Backoff ngram request-prediction model (§5.2). The model learns transition
// counts from length-(1..N) contexts of previously requested tokens (raw or
// clustered URLs) to the next token. Prediction backs off: the longest
// observed context suffix is used first; shorter contexts (down to the
// unigram popularity prior) fill remaining top-K slots with a per-level
// discount — "stupid backoff" scoring, which preserves ranking, the only
// thing accuracy@K depends on.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "logs/table.h"
#include "stats/hash.h"
#include "stats/rng.h"

namespace jsoncdn::core {

class NgramModel {
 public:
  // max_context: longest history used (the paper's "N"). N=1 is a bigram
  // model: predict from the single most recent request.
  explicit NgramModel(std::size_t max_context);

  // Adds all context->next transitions of one client request sequence.
  void observe_sequence(std::span<const std::string> tokens);

  // Adds every count of `other` (same max_context) into this model —
  // the merge half of shard-then-merge parallel training. Token ids are
  // remapped through the vocabulary, so predictions from a merged model are
  // identical to training one model on the concatenated shards: counts add
  // exactly and ranking ties break on token text, never on id.
  void merge(const NgramModel& other);

  // Ranks every context's continuations, and the unigram prior, once: count
  // descending, then token name ascending. Call it after the last
  // observe_sequence()/merge() and before predict(); training again
  // afterwards needs another freeze().
  void freeze();

  struct Prediction {
    std::string token;
    double score = 0.0;  // backoff-discounted relative frequency
  };

  // Top-k next-token predictions for a history (most recent token last),
  // read off the lists freeze() ranked. Throws std::logic_error when the
  // model has changed since its last freeze(). Safe to call from several
  // threads at once.
  [[nodiscard]] std::vector<Prediction> predict(
      std::span<const std::string> history, std::size_t k) const;

  [[nodiscard]] std::size_t vocabulary_size() const noexcept {
    return vocab_.size();
  }
  // True if the token was ever observed during training. Heterogeneous
  // lookup: no temporary std::string.
  [[nodiscard]] bool knows(std::string_view token) const {
    return vocab_.find(token) != vocab_.end();
  }
  [[nodiscard]] std::size_t max_context() const noexcept {
    return max_context_;
  }
  [[nodiscard]] std::uint64_t observed_transitions() const noexcept {
    return transitions_;
  }

 private:
  using TokenId = std::uint32_t;
  using CountMap = std::unordered_map<TokenId, std::uint32_t>;
  // A distribution's counts, in predict()'s order, with their exact
  // integer total.
  struct Ranked {
    std::vector<std::pair<TokenId, std::uint32_t>> entries;
    std::uint64_t total = 0;
  };
  // One next-token distribution, held once: a CountMap while training, the
  // same counts Ranked after freeze(), and a CountMap again once a later
  // observe_sequence()/merge() thaws the model.
  using Distribution = std::variant<CountMap, Ranked>;

  TokenId intern(std::string_view token);
  [[nodiscard]] std::string context_key(std::span<const TokenId> context) const;
  void thaw();

  std::size_t max_context_;
  // Transparent hashing: interning and prediction look tokens up by
  // string_view without materializing a std::string per probe.
  std::unordered_map<std::string, TokenId, stats::TransparentStringHash,
                     std::equal_to<>>
      vocab_;
  std::vector<std::string> token_names_;
  // One table per context length; contexts serialized to byte-string keys.
  std::vector<std::unordered_map<std::string, Distribution>> tables_;
  Distribution unigrams_ = Ranked{};
  std::uint64_t transitions_ = 0;
  bool frozen_ = true;  // an untrained model is trivially ranked
};

// ---- Table 3 evaluation ---------------------------------------------------

// Table 3's protocol. The paper fixes K and the 80/20 client split, so
// those are constants; shipped callers vary only N, clustering and threads.
struct NgramEvalConfig {
  std::size_t context_len = 1;           // the paper's N
  static constexpr std::array<std::size_t, 3> ks = {1, 5, 10};
  // Share of unique clients trained on (paper), hashed with `seed`.
  static constexpr double train_fraction = 0.8;
  static constexpr std::uint64_t seed = 17;
  bool clustered = false;                // raw URLs vs clustered URLs
  static constexpr std::size_t min_flow_requests = 2;
  // Worker threads for token extraction, sharded training, and scoring:
  // 0 = auto (JSONCDN_THREADS env, else hardware_concurrency). Accuracy
  // figures are bit-identical for any value.
  std::size_t threads = 0;
};

// The client-level split: true when `client` is on the training side. A
// hash of the client key and NgramEvalConfig::seed decides, so the split is
// stable under dataset reordering and the oracle's skyline puts a client on
// the same side as evaluate_ngram.
[[nodiscard]] bool is_train_client(std::string_view client) noexcept;

struct NgramAccuracy {
  std::size_t context_len = 1;
  bool clustered = false;
  std::size_t train_clients = 0;
  std::size_t test_clients = 0;
  std::size_t predictions = 0;
  std::map<std::size_t, double> accuracy_at;  // k -> accuracy
};

// Trains on train_fraction of clients and scores accuracy@K on the rest,
// exactly the paper's protocol (client-level split, per-client request
// flows, URL features; clustered variant applies cluster_url()). Client
// flows group on interned symbols and URL tokens come straight from the
// table's dictionary.
[[nodiscard]] NgramAccuracy evaluate_ngram(const logs::TableView& view,
                                           const NgramEvalConfig& config);

}  // namespace jsoncdn::core
