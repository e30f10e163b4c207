module Stats = Stc_numerics.Stats

type config = {
  learner : Compaction.learner;
  target_guard : float;
}

let default_config =
  {
    learner = Learner.default_svr;
    target_guard = 0.05;
  }

type t = {
  specs : Spec.t array;
  kept : int array;
  dropped : int array;
  decision : float array -> float;
  margin : float;
}

let train ?(config = default_config) data ~dropped =
  if Array.length dropped = 0 then
    invalid_arg "Adaptive_guard.train: empty dropped set";
  if config.target_guard < 0.0 || config.target_guard >= 1.0 then
    invalid_arg "Adaptive_guard.train: target_guard outside [0,1)";
  let specs = Device_data.specs data in
  let kept = Compaction.complement ~k:(Array.length specs) dropped in
  let features = Device_data.features data ~keep:kept in
  let labels = Device_data.pass_labels data ~subset:dropped in
  let decision =
    Guard_band.decision (Learner.train config.learner ~features ~labels)
  in
  let magnitudes = Array.map (fun v -> Float.abs (decision v)) features in
  let margin =
    if config.target_guard = 0.0 then 0.0
    else Stats.quantile magnitudes config.target_guard
  in
  { specs; kept; dropped = Array.copy dropped; decision; margin }

let margin t = t.margin

let band t =
  Guard_band.make
    ~tight:(fun v -> if t.decision v >= t.margin then 1 else -1)
    ~loose:(fun v -> if t.decision v > -.t.margin then 1 else -1)

let flow t =
  {
    Compaction.specs = t.specs;
    kept = t.kept;
    dropped = t.dropped;
    band = Some (band t);
    guard_fraction = 0.0;
    measured_guard = false;
  }
