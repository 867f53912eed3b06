/**
 * @file
 * The shared (predictor, estimator) family registry behind the
 * differential test wall.
 *
 * The sweep engine's bit-exactness contract is only as strong as the
 * set of configurations the differential tests enumerate. Before this
 * registry existed each test file carried its own hard-coded family
 * list, so a new predictor or estimator could silently skip the
 * harness. Now there is exactly one list: add a family here and every
 * differential combo — single/multi-thread, batch-size invariance,
 * decode-ahead depth, checkpoint kill-and-resume — covers it
 * automatically.
 *
 * Geometries are deliberately small (test scale): the registry's job
 * is to exercise every code path's state machine, not to reproduce
 * paper-scale accuracy numbers (sim/experiment.h owns those).
 */

#ifndef CONFSIM_TESTS_SUPPORT_FAMILY_REGISTRY_H
#define CONFSIM_TESTS_SUPPORT_FAMILY_REGISTRY_H

#include <string>
#include <vector>

#include "sim/sweep_engine.h"

namespace confsim {

/**
 * Every estimator family in src/confidence/ as a sweep configuration
 * labelled with the family's name, each over the reference
 * small-gshare predictor. Native-confidence estimators (TAGE
 * provider, perceptron margin) read their predictor's internal state,
 * so they ride a predictor of their own family and geometry instead.
 */
std::vector<SweepConfiguration> estimatorFamilyRegistry();

/**
 * Every predictor family in src/predictor/, each under a fixed
 * resetting-counter estimator (the paper's workhorse), so predictor
 * state machines face the same differential wall estimators do.
 */
std::vector<SweepConfiguration> predictorFamilyRegistry();

/** The union of both registries (labels are unique across them). */
std::vector<SweepConfiguration> differentialFamilyRegistry();

/**
 * Look up a family by label in the combined registry.
 * Fatals (Error{kConfig}) on an unknown label so tests that pick
 * specific families fail loudly when one is renamed.
 */
SweepConfiguration differentialFamilyNamed(const std::string &label);

} // namespace confsim

#endif // CONFSIM_TESTS_SUPPORT_FAMILY_REGISTRY_H
