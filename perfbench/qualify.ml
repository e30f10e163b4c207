(* The qualify-a-flow workloads: Monte-Carlo simulation, greedy
   compaction, a Flow_io write and read, and evaluation on the held-out
   test population. *)

open Common
module Montecarlo = Stc_process.Montecarlo
module Rng = Stc_numerics.Rng
module Experiment = Stc.Experiment
module Compaction = Stc.Compaction
module Device_data = Stc.Device_data
module Metrics = Stc.Metrics
module Order = Stc.Order
module Spec = Stc.Spec
module Flow_io = Stc_floor.Flow_io

type t = {
  name : string;
  device : unit -> Montecarlo.device;
  specs : Spec.t array;
  config : Compaction.config;
  order : Order.strategy;
  n_train : int;
  n_test : int;
  instance_span : string;  (** span around one simulated instance *)
}

(* The op-amp as `stc train` qualifies it: the library device (calibrated),
   the paper's op-amp config, the functional examination order. The
   population is far below `stc train`'s 800/400, so that a run
   simulates each of its instances many times. *)
let opamp_qualify =
  {
    name = "opamp_qualify";
    device = (fun () -> Experiment.opamp_device ());
    specs = Experiment.opamp_specs;
    config = Experiment.opamp_config;
    order = Order.Given Experiment.opamp_examination_order;
    n_train = 10;
    n_test = 5;
    instance_span = "circuit.instance";
  }

(* 3000 training rows: past Row_cache.dense_limit, and a 3000² kernel
   matrix (72 MB) overflows the 64 MB row-cache budget, so SMO runs on
   the evicting FIFO cache. *)
let mems_compact =
  {
    name = "mems_compact";
    device = (fun () -> Experiment.mems_device ());
    specs = Experiment.mems_specs;
    config = Experiment.mems_config;
    order = Order.By_failure_count;
    n_train = 3000;
    n_test = 1000;
    instance_span = "mems.instance";
  }

(* Forces the device's lazy initialisation (calibration) by simulating
   the nominal draw; false if that draw does not simulate. *)
let init_device q =
  let d = q.device () in
  d.Montecarlo.simulate (Stc_process.Variation.nominal_values d.Montecarlo.params) <> None

(* The seed of a run's [j]th population. *)
let sub_seed ~seed j = (seed * 1009) + j

(* ------------------------------------------------------------------ *)
(* The wrapped device                                                  *)
(* ------------------------------------------------------------------ *)

type sims = {
  mutable calls : int;
  mutable failed : int;  (** draws that did not simulate *)
  mutable times : float list;  (** seconds per simulate call *)
}

(* The device with its [simulate] timed (and spanned) per instance and
   its failed draws counted — Device_data drops [discarded]. The draw
   stream is untouched, so the population equals Experiment's. *)
let wrap ~instance_span (d : Montecarlo.device) =
  let st = { calls = 0; failed = 0; times = [] } in
  let simulate p =
    let t0 = now () in
    let r = span instance_span (fun () -> d.simulate p) in
    st.times <- (now () -. t0) :: st.times;
    st.calls <- st.calls + 1;
    if r = None then st.failed <- st.failed + 1;
    r
  in
  ({ d with Montecarlo.simulate }, st)

(* Experiment.generate_datasets for a serial stream, on a given device. *)
let generate q device ~seed =
  let all =
    Montecarlo.generate (Rng.create seed) device ~n:(q.n_train + q.n_test)
  in
  let train_mc, test_mc = Montecarlo.split all ~at:q.n_train in
  ( all,
    Device_data.of_montecarlo ~specs:q.specs train_mc,
    Device_data.of_montecarlo ~specs:q.specs test_mc )

(* ------------------------------------------------------------------ *)
(* One qualification                                                   *)
(* ------------------------------------------------------------------ *)

type outcome = {
  wall_s : float;
  generate_s : float;
  greedy_s : float;
  write_s : float;
  read_s : float;
  evaluate_s : float;
  sims : sims;
  inputs : float array array;  (** drawn parameter vectors *)
  train_hash : string;
  test_hash : string;
  fingerprint : string;
  flow_bytes : int;
  kept : int;
  counts : Metrics.counts;
  errors : string list;  (** failed output checks *)
}

let run q ~seed ~dir =
  let t0 = now () in
  let errors = ref [] in
  let check ok msg = if not ok then errors := msg :: !errors in
  let device, sims = wrap ~instance_span:q.instance_span (q.device ()) in
  let result =
    span "bench.qualify" (fun () ->
        let (all, train, test), generate_s =
          time (fun () ->
              span "process.generate" (fun () -> generate q device ~seed))
        in
        let result, greedy_s =
          time (fun () ->
              span "core.greedy" (fun () ->
                  Compaction.greedy ~order:q.order q.config ~train ~test))
        in
        let flow = result.Compaction.flow in
        let path = Filename.concat dir (q.name ^ ".flow") in
        let saved, write_s =
          time (fun () ->
              span "floor.flow_write" (fun () -> Flow_io.save ~path flow))
        in
        let loaded, read_s =
          time (fun () -> span "floor.flow_read" (fun () -> Flow_io.load ~path))
        in
        let counts, evaluate_s =
          time (fun () ->
              span "core.evaluate" (fun () -> Compaction.evaluate_flow flow test))
        in
        let text = Flow_io.to_string flow in
        (match (saved, loaded, text) with
         | Ok (), Ok reloaded, Ok text ->
           let on_disk = read_file path in
           check (on_disk = text) "flow file differs from Flow_io.to_string";
           check
             (Flow_io.to_string reloaded = Ok on_disk)
             "reloaded flow does not re-serialise byte for byte";
           let again =
             span "core.evaluate" (fun () ->
                 Compaction.evaluate_flow reloaded test)
           in
           check (again = counts) "reloaded flow evaluates differently"
         | Error e, _, _ | _, Error e, _ | _, _, Error e ->
           check false ("flow persistence failed: " ^ e));
        let fingerprint =
          match Flow_io.fingerprint flow with Ok f -> f | Error e -> e
        in
        {
          wall_s = 0.0;
          generate_s;
          greedy_s;
          write_s;
          read_s;
          evaluate_s;
          sims;
          inputs = all.Montecarlo.inputs;
          train_hash = population_hash (Device_data.values train);
          test_hash = population_hash (Device_data.values test);
          fingerprint;
          flow_bytes = (match text with Ok s -> String.length s | Error _ -> 0);
          kept = Array.length flow.Compaction.kept;
          counts;
          errors = [];
        })
  in
  { result with wall_s = now () -. t0; errors = List.rev !errors }

(* Exact results that must repeat for one seed: the population and flow
   hashes and the test-quality counts. *)
let signature o =
  Printf.sprintf "train=%s test=%s flow=%s kept=%d counts=%d/%d/%d/%d"
    o.train_hash o.test_hash o.fingerprint o.kept o.counts.Metrics.escapes
    o.counts.Metrics.losses o.counts.Metrics.guards o.counts.Metrics.total

(* ------------------------------------------------------------------ *)
(* Simulator breakdown                                                 *)
(* ------------------------------------------------------------------ *)

module Opamp = Stc_circuit.Opamp
module Mna = Stc_circuit.Mna
module Dc = Stc_circuit.Dc
module Ac = Stc_circuit.Ac
module Tran = Stc_circuit.Tran
module Roots = Stc_numerics.Roots

(* The draw-to-sizing map of Experiment.opamp_device (14 varied
   parameters, in Experiment's order); the test suite pins it against
   the library's own simulate. *)
let opamp_params_of_draw v =
  {
    Opamp.nominal with
    Opamp.w1 = v.(0); l1 = v.(1);
    w3 = v.(2); l3 = v.(3);
    w5 = v.(4); l5 = v.(5);
    w6 = v.(6); l6 = v.(7);
    w7 = v.(8); l7 = v.(9);
    w8 = v.(10); l8 = v.(11);
    cc = v.(12);
    cl = v.(13);
  }

type breakdown = {
  dc_s : float;  (** Mna.build + initial guess + Dc.solve, four DC benches *)
  ac_s : float;  (** every Ac.solve_one Measure_opamp makes *)
  tran_small_s : float;  (** Tran.run on the small-step bench *)
  tran_large_s : float;  (** Tran.run on the large-step bench *)
}

(* The calls Measure_opamp.measure makes, with the same benches, search
   grids and tstop/dt, each timed by simulator entry point. Runs with
   tracing off: it is a probe beside the workload, not part of it. *)
let breakdown_one p =
  let dc = ref 0.0 and ac = ref 0.0 in
  let solve_dc bench =
    let r, dt =
      time (fun () ->
          let sys = Mna.build (Opamp.netlist p bench) in
          let x0 = Opamp.initial_guess p sys in
          (sys, Dc.solve ~x0 sys))
    in
    dc := !dc +. dt;
    r
  in
  let mag sys ~op ~freq =
    let m, dt =
      time (fun () ->
          let x = Ac.solve_one sys ~op ~freq in
          Complex.norm x.(Mna.node_index sys "out"))
    in
    ac := !ac +. dt;
    m
  in
  let crossing sys ~op ~target ~f_lo ~f_hi =
    let g logf = mag sys ~op ~freq:(10.0 ** logf) -. target in
    match Roots.find_bracket g ~lo:(log10 f_lo) ~hi:(log10 f_hi) ~steps:60 with
    | None -> f_hi
    | Some (a, b) -> 10.0 ** Roots.brent ~tol:1e-6 g a b
  in
  let sys, op = solve_dc Opamp.Open_loop_gain in
  let gain = mag sys ~op ~freq:1.0 in
  let bw = crossing sys ~op ~target:(gain /. sqrt 2.0) ~f_lo:1.0 ~f_hi:1e6 in
  ignore (crossing sys ~op ~target:1.0 ~f_lo:bw ~f_hi:1e9 : float);
  List.iter
    (fun bench ->
      let sys, op = solve_dc bench in
      ignore (mag sys ~op ~freq:10.0 : float))
    [ Opamp.Common_mode; Opamp.Power_supply ];
  ignore (solve_dc Opamp.Short_circuit : Mna.t * Stc_numerics.Vec.t);
  let tran bench ~tstop =
    snd
      (time (fun () ->
           let sys = Mna.build (Opamp.netlist p bench) in
           let r = Tran.run sys ~tstop ~dt:(tstop /. 1200.0) in
           ignore (Tran.node_waveform sys r "out" : (float * float) array)))
  in
  let tran_small_s = tran (Opamp.Unity_small_step 0.1) ~tstop:4.0e-6 in
  let tran_large_s = tran (Opamp.Unity_large_step 4.0) ~tstop:18.0e-6 in
  { dc_s = !dc; ac_s = !ac; tran_small_s; tran_large_s }

(* Breakdown of a fixed sample of the op's drawn instances (the
   dataset keeps only draws that simulated), each paired with the time
   of the workload's own full [simulate] on the same draw. *)
let breakdown ~sample inputs =
  let device = Experiment.opamp_device () in
  let n = Stdlib.min sample (Array.length inputs) in
  Array.init n (fun i ->
      let draw = inputs.(i) in
      let _, full_s = time (fun () -> device.Montecarlo.simulate draw) in
      (full_s, breakdown_one (opamp_params_of_draw draw)))
