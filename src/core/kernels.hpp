// Kernel lookup: which protocols have a compiled fast path.
//
// The runners and CLIs stay protocol-agnostic; they ask this factory for a
// kernel and fall back to the generic LocalView path when it returns null.
// A protocol earns a flat kernel by having per-node state that flattens into
// a structure-of-arrays mirror — today SMM (dense pointer vector) and SIS
// (packed membership bitset). Wrappers like core::Synchronized<SmmProtocol>
// deliberately do NOT match: their state carries scheduling fields the flat
// mirrors don't model, and dynamic_cast on the concrete protocol type keeps
// them on the generic path without any opt-out flag.
#pragma once

#include <memory>
#include <type_traits>

#include "core/sis.hpp"
#include "core/sis_kernel.hpp"
#include "core/smm.hpp"
#include "core/smm_kernel.hpp"
#include "engine/kernel.hpp"

namespace selfstab::core {

/// Flat (SoA batch) kernel for the round executors, or nullptr when the
/// protocol has none (or, for SMM, when the graph is too large for its
/// 31-bit key fields).
template <typename State>
[[nodiscard]] std::unique_ptr<engine::FlatKernel<State>> makeFlatKernel(
    const engine::Protocol<State>& protocol, const graph::Graph& g,
    const graph::IdAssignment& ids) {
  if constexpr (std::is_same_v<State, BitState>) {
    if (const auto* sis = dynamic_cast<const SisProtocol*>(&protocol)) {
      return std::make_unique<SisKernel>(g, ids, sis->seniority());
    }
  } else if constexpr (std::is_same_v<State, PointerState>) {
    const auto* smm = dynamic_cast<const SmmProtocol*>(&protocol);
    if (smm != nullptr && SmmKernel::fits(g)) {
      return std::make_unique<SmmKernel>(g, ids, smm->proposePolicy(),
                                         smm->acceptPolicy());
    }
  }
  (void)g;
  (void)ids;
  return nullptr;
}

/// View-level kernel for executors without a static graph to mirror (the
/// beacon simulator), or nullptr. Evaluation is the same shared rule code
/// the protocol's onRound delegates to, minus the Protocol vtable hop.
class SisViewKernel final : public engine::ViewKernel<BitState> {
 public:
  explicit SisViewKernel(Seniority seniority) : seniority_(seniority) {}

  [[nodiscard]] std::optional<BitState> evaluateView(
      const engine::LocalView<BitState>& view) const override {
    return sisEvaluateView(view, seniority_);
  }

 private:
  Seniority seniority_;
};

class SmmViewKernel final : public engine::ViewKernel<PointerState> {
 public:
  SmmViewKernel(Choice propose, Choice accept)
      : propose_(propose), accept_(accept) {}

  [[nodiscard]] std::optional<PointerState> evaluateView(
      const engine::LocalView<PointerState>& view) const override {
    return smmEvaluateView(view, propose_, accept_);
  }

 private:
  Choice propose_;
  Choice accept_;
};

template <typename State>
[[nodiscard]] std::unique_ptr<engine::ViewKernel<State>> makeViewKernel(
    const engine::Protocol<State>& protocol) {
  if constexpr (std::is_same_v<State, BitState>) {
    if (const auto* sis = dynamic_cast<const SisProtocol*>(&protocol)) {
      return std::make_unique<SisViewKernel>(sis->seniority());
    }
  } else if constexpr (std::is_same_v<State, PointerState>) {
    if (const auto* smm = dynamic_cast<const SmmProtocol*>(&protocol)) {
      return std::make_unique<SmmViewKernel>(smm->proposePolicy(),
                                             smm->acceptPolicy());
    }
  }
  return nullptr;
}

}  // namespace selfstab::core
