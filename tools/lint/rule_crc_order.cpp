// crc-before-interpret: every rank-to-rank message arrives in an
// mpi::envelope and may have been corrupted on the (simulated) wire; a
// flipped status byte turns a hit into a miss, a flipped member state
// marks a live rank dead. So no byte of a message may be read before
// mpi::unseal() has verified its crc. Within each function body in core/
// and cluster/, this rule flags
//   - reads of a received message's `payload` (element or data access, or
//     handing it to anything but unseal) before the first unseal() call,
//     in functions that handle an mpi::Message or receive one; and
//   - reply status compares (== / != against kFetchOk/kFetchNotFound/
//     kFetchMalformed/kMetaOk/kMetaNotFound/kMetaMalformed) before the
//     first unseal() or call() — call() returns only a verified body.
#include "rules.hpp"

#include <set>

namespace fanstore::lint {

namespace {

const std::set<std::string> kStatusConsts = {
    "kFetchOk", "kFetchNotFound", "kFetchMalformed",
    "kMetaOk",  "kMetaNotFound",  "kMetaMalformed"};

const std::set<std::string> kReceives = {"Message", "recv", "recv_timeout",
                                         "try_recv", "recv_if", "try_recv_if"};

bool eq_or_ne(const Token& t) {
  return t.kind == Tok::kPunct && (t.text == "==" || t.text == "!=");
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

}  // namespace

void rule_crc_order(const FileCtx& ctx, std::vector<Finding>* out) {
  if (ctx.rel.rfind("core/", 0) != 0 && ctx.rel.rfind("cluster/", 0) != 0) return;
  const auto& toks = *ctx.tokens;
  const auto& m = *ctx.model;
  const auto calls = [&](std::size_t i) {
    const std::size_t paren = m.next_code(i);
    return paren != TuModel::npos && is_punct(toks[paren], "(");
  };

  for (const FunctionInfo& fn : m.functions) {
    // The signature: back from the body to the end of the previous
    // declaration or block.
    std::size_t sig = fn.body_begin;
    while (sig > 0) {
      const Token& t = toks[sig - 1];
      if (is_punct(t, ";") || is_punct(t, "}") || is_punct(t, "{")) break;
      --sig;
    }
    bool receives = false;
    std::size_t unseal_at = TuModel::npos;   // first unseal( call
    std::size_t verified_at = TuModel::npos; // first unseal( or call(
    std::size_t unseal_close = TuModel::npos;
    for (std::size_t i = sig; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      if (kReceives.count(t.text) != 0) receives = true;
      if (i < fn.body_begin || !calls(i)) continue;
      if (t.text == "unseal" && unseal_at == TuModel::npos) {
        unseal_at = i;
        unseal_close = m.bracket_match[m.next_code(i)];
      }
      if ((t.text == "unseal" || t.text == "call") && verified_at == TuModel::npos) {
        verified_at = i;
      }
    }

    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent || kStatusConsts.count(t.text) == 0) continue;
      if (verified_at != TuModel::npos && verified_at < i) break;
      const std::size_t prev = m.prev_code(i);
      const std::size_t next = m.next_code(i);
      if ((prev != TuModel::npos && eq_or_ne(toks[prev])) ||
          (next != TuModel::npos && eq_or_ne(toks[next]))) {
        out->push_back(Finding{
            "crc-before-interpret", ctx.rel, t.line, t.col,
            "'" + t.text + "' interprets a reply before unseal() or call() "
            "has verified it (in " + fn.name + ")",
            {}});
        break;
      }
    }

    if (!receives) continue;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (!(t.kind == Tok::kIdent && t.text == "payload")) continue;
      if (unseal_at != TuModel::npos && i > unseal_at) {
        if (unseal_close == TuModel::npos || i > unseal_close) break;
        continue;  // the unseal() argument itself
      }
      const std::size_t prev = m.prev_code(i);
      if (prev == TuModel::npos ||
          !(is_punct(toks[prev], ".") || is_punct(toks[prev], "->"))) {
        continue;  // not a member access (a local named payload)
      }
      out->push_back(Finding{
          "crc-before-interpret", ctx.rel, t.line, t.col,
          "message payload read before unseal() has verified it (in " +
              fn.name + ")",
          {}});
      break;
    }
  }
}

}  // namespace fanstore::lint
