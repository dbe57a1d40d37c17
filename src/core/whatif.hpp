// What-if adapter: ModelConfig <-> perfmodel prediction coordinates.
//
// perfmodel sits below core in the layering (it knows nothing about
// ModelConfig, filter algorithms or machine profiles), so the conversion from a
// run request to a prediction Point — and the convenience of predicting a
// configured run, or turning a finished run into a training observation —
// lives here.
#pragma once

#include "core/model.hpp"
#include "perfmodel/predict.hpp"

namespace agcm::core {

/// The prediction coordinate of a configuration: mesh/resolution, the
/// filter backend token, the LB rounds, and the machine scalars.
perfmodel::Point point_from(const ModelConfig& config);

/// A finished run as a training/validation observation (the five per-step
/// component times, max over ranks).
perfmodel::Observation observation_from(const ModelConfig& config,
                                        const RunReport& report);

/// Predicts the per-step component times of `config` without running it.
/// Throws ConfigError when the model lacks a predictor the
/// configuration needs (e.g. an untrained filter backend).
perfmodel::Prediction predict_config(const perfmodel::PredictModel& model,
                                     const ModelConfig& config);

}  // namespace agcm::core
