#include "src/coloring/linial.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/util/bits.h"
#include "src/util/prime.h"

namespace dcolor {

namespace {

// Smallest prime q such that colors in [k] written base q (d+1 = number of
// digits) satisfy q > max_degree * d. Such q exists and is O(Delta log k).
LinialStep step_for(std::int64_t k, int max_degree) {
  max_degree = std::max(max_degree, 1);
  for (std::int64_t q = max_degree + 1;; q = next_prime(q + 1)) {
    if (!is_prime(q)) {
      q = static_cast<std::int64_t>(next_prime(static_cast<std::uint64_t>(q)));
    }
    // digits needed for values < k in base q
    int digits = 1;
    for (std::int64_t span = q; span < k; span *= q) ++digits;
    const int d = digits - 1;  // polynomial degree bound
    if (q > static_cast<std::int64_t>(max_degree) * std::max(d, 1)) {
      return LinialStep{
          q, d, bit_width_of(static_cast<std::uint64_t>(std::max<std::int64_t>(k - 1, 1)))};
    }
  }
}

// One step in CONGEST: exchange colors with the active neighbors (one
// round), then every active node picks its next color.
void run_step(congest::Network& net, const InducedSubgraph& active,
              std::vector<std::int64_t>& coloring, const LinialStep& st) {
  const Graph& g = net.graph();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active.contains(v)) continue;
    active.for_each_neighbor(v, [&](NodeId u) {
      net.send(v, u, static_cast<std::uint64_t>(coloring[v]), st.color_bits);
    });
  }
  net.advance_round();

  std::vector<std::int64_t> next(coloring.size(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active.contains(v)) continue;
    // Collect neighbor colors (restricted to active neighbors).
    std::vector<std::int64_t> nb_colors;
    for (const congest::Incoming& m : net.inbox(v)) {
      nb_colors.push_back(static_cast<std::int64_t>(m.payload));
    }
    next[v] = linial_pick_next_color(coloring[v], nb_colors, st.q, st.poly_degree);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (active.contains(v)) coloring[v] = next[v];
  }
}

}  // namespace

LinialSchedule plan_linial(std::int64_t initial_colors, int active_max_degree) {
  LinialSchedule s;
  std::int64_t k = initial_colors;
  for (;;) {
    const LinialStep st = step_for(k, active_max_degree);
    if (st.q * st.q >= k) break;
    s.steps.push_back(st);
    k = st.q * st.q;
  }
  s.final_colors = k;
  return s;
}

std::int64_t linial_eval(std::int64_t x, std::int64_t alpha, std::int64_t q, int degree) {
  // Coefficients = base-q digits of x; Horner from the top digit.
  std::int64_t coeff[64];
  for (int i = 0; i <= degree; ++i) {
    coeff[i] = x % q;
    x /= q;
  }
  std::int64_t acc = 0;
  for (int i = degree; i >= 0; --i) acc = (acc * alpha + coeff[i]) % q;
  return acc;
}

std::int64_t linial_pick_next_color(std::int64_t color, std::span<const std::int64_t> nb_colors,
                                    std::int64_t q, int degree) {
  // Find alpha such that (alpha, f_v(alpha)) differs from every
  // neighbor's full polynomial graph: for each neighbor u with a
  // different polynomial, f_u agrees with f_v on <= degree points, and
  // there are <= Delta * degree bad points < q in total.
  for (std::int64_t alpha = 0; alpha < q; ++alpha) {
    bool ok = true;
    const std::int64_t mine = linial_eval(color, alpha, q, degree);
    for (std::int64_t cu : nb_colors) {
      if (cu == color) continue;  // proper input coloring forbids this
      if (linial_eval(cu, alpha, q, degree) == mine) {
        ok = false;
        break;
      }
    }
    if (ok) return alpha * q + mine;
  }
  assert(false && "q > Delta*degree guarantees a free point");
  return 0;
}

std::int64_t linial_next_palette(std::int64_t k_in, int max_degree) {
  const LinialStep st = step_for(k_in, max_degree);
  return st.q * st.q;
}

std::int64_t linial_step(congest::Network& net, const InducedSubgraph& active,
                         std::vector<std::int64_t>& coloring, std::int64_t k_in,
                         int active_max_degree) {
  const LinialStep st = step_for(k_in, active_max_degree);
  run_step(net, active, coloring, st);
  return st.q * st.q;
}

LinialResult linial_coloring(congest::Network& net, const InducedSubgraph& active,
                             const std::vector<std::int64_t>* initial,
                             std::int64_t initial_colors) {
  const Graph& g = net.graph();
  LinialResult res;
  if (initial != nullptr) {
    res.coloring = *initial;
    res.num_colors = initial_colors;
  } else {
    res.coloring.resize(g.num_nodes());
    std::iota(res.coloring.begin(), res.coloring.end(), 0);
    res.num_colors = g.num_nodes();
  }
  int delta = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (active.contains(v)) delta = std::max(delta, active.degree(v));
  }
  const LinialSchedule schedule = plan_linial(res.num_colors, delta);
  for (const LinialStep& st : schedule.steps) run_step(net, active, res.coloring, st);
  res.num_colors = schedule.final_colors;
  res.iterations = static_cast<int>(schedule.steps.size());
  return res;
}

}  // namespace dcolor
