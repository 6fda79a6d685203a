// Linial's deterministic color reduction [Lin92] in CONGEST.
//
// Given a proper K-coloring (e.g. unique ids, K = n), each iteration maps
// colors to pairs (alpha, f_x(alpha)) where f_x is the polynomial over
// F_q whose coefficient vector is the base-q representation of the current
// color x. Distinct colors are distinct polynomials of degree <= d, so two
// of them collide on at most d evaluation points; with q > Delta*d every
// node finds an evaluation point avoiding all its neighbors' polynomial
// graphs, making the pair coloring proper with q^2 colors. Iterating
// reaches O(Delta^2 log^2 Delta) colors in O(log* K) rounds — the input
// coloring Lemma 2.1 needs (only log K enters the runtime, so the extra
// log^2 Delta factor over Linial's O(Delta^2) is immaterial).
//
// Works on the subgraph induced by `active` (degrees/conflicts restricted
// to it) while communicating over the full network.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/congest/network.h"
#include "src/graph/graph.h"

namespace dcolor {

struct LinialResult {
  std::vector<std::int64_t> coloring;  // proper on the active subgraph
  std::int64_t num_colors = 0;         // colors are in [0, num_colors)
  int iterations = 0;
};

// Parameters of one reduction step from a k-coloring: the smallest prime
// q (and the matching polynomial-degree bound) such that colors in [k]
// written base q satisfy q > max_degree * degree, and the declared width
// of the step's color exchange.
struct LinialStep {
  std::int64_t q = 0;      // field size of this step
  int poly_degree = 0;     // degree bound of the color polynomials
  int color_bits = 0;      // declared width of this step's color exchange
};

struct LinialSchedule {
  std::vector<LinialStep> steps;
  std::int64_t final_colors = 0;
};

// The steps linial_coloring runs from a k-coloring on a subgraph of the
// given max degree: a step runs only while it shrinks the palette. The
// schedule depends on nothing else, so both executors replay it
// (src/runtime/linial_program.h plans it up front).
LinialSchedule plan_linial(std::int64_t initial_colors, int active_max_degree);

// f_color(alpha) over F_q, where f_color's coefficient vector is the
// base-q representation of `color` (degree <= poly_degree <= 63).
std::int64_t linial_eval(std::int64_t color, std::int64_t alpha, std::int64_t q,
                         int poly_degree);

// One node's selection: the smallest evaluation point alpha whose pair
// (alpha, f_color(alpha)) differs from every neighbor polynomial's graph,
// returned as the pair color alpha*q + f_color(alpha). Shared by the
// Network driver and the src/runtime engine port so the two executors
// cannot drift apart (the engine's bit-parity guarantee rests on it).
std::int64_t linial_pick_next_color(std::int64_t color, std::span<const std::int64_t> nb_colors,
                                    std::int64_t q, int poly_degree);

// Palette size q^2 one Linial step would produce from a k_in-coloring on a
// subgraph of the given max degree (without running it).
std::int64_t linial_next_palette(std::int64_t k_in, int max_degree);

// One Linial reduction step: proper `k_in`-coloring -> proper q^2-coloring.
// Exposed separately for tests. Returns the new number of colors.
std::int64_t linial_step(congest::Network& net, const InducedSubgraph& active,
                         std::vector<std::int64_t>& coloring, std::int64_t k_in,
                         int active_max_degree);

// Full reduction from the given coloring (default: ids) until the number
// of colors stops shrinking.
LinialResult linial_coloring(congest::Network& net, const InducedSubgraph& active,
                             const std::vector<std::int64_t>* initial = nullptr,
                             std::int64_t initial_colors = 0);

}  // namespace dcolor
