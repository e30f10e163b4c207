(* The benchmark's own checks: its wrapped simulation path draws exactly
   Experiment's populations, its exact counts repeat, its trace fold adds
   up, the served replies match offline verdicts, and BENCHMARK.json
   lists the metrics it prints. Run with `dune build @perfbench/perfcheck`;
   arguments: BENCHMARK.json and the stc CLI. *)

open Common
module Experiment = Stc.Experiment
module Device_data = Stc.Device_data
module Montecarlo = Stc_process.Montecarlo
module Measure_opamp = Stc_circuit.Measure_opamp

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok   %s\n%!" name
  | exception e ->
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name (Printexc.to_string e)

let expect ok msg = if not ok then failwith msg

let dir = "perfcheck-out"

(* The wrapped device must draw exactly the population Experiment draws. *)
let same_population (q : Qualify.t) generate =
  let seed = 11 in
  let device, sims = Qualify.wrap ~instance_span:q.Qualify.instance_span (q.Qualify.device ()) in
  let _, train, test = Qualify.generate q device ~seed in
  let train', test' = generate ~seed ~n_train:q.Qualify.n_train ~n_test:q.Qualify.n_test () in
  expect (Device_data.values train = Device_data.values train') "training rows differ";
  expect (Device_data.values test = Device_data.values test') "test rows differ";
  expect
    (sims.Qualify.calls = q.Qualify.n_train + q.Qualify.n_test + sims.Qualify.failed)
    "simulate calls do not equal instances plus failed draws";
  expect (List.length sims.Qualify.times = sims.Qualify.calls) "untimed simulate calls"

let small_opamp = { Qualify.opamp_qualify with Qualify.n_train = 6; n_test = 4 }
let small_mems = { Qualify.mems_compact with Qualify.n_train = 300; n_test = 150 }

let counters () =
  let s = snapshot () in
  List.map (get s)
    [ "stc_smo_solves_total"; "stc_smo_iterations_total";
      "stc_svm_kernel_evals_total"; "stc_compaction_candidates_total" ]

let run_counted q ~seed =
  let c0 = counters () in
  let o = Qualify.run q ~seed ~dir in
  (o, List.map2 ( -. ) (counters ()) c0)

let json_metrics json key =
  match Json.member key json with
  | Some (Json.List items) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | _ -> failwith ("malformed entry in " ^ key))
      items
  | _ -> failwith ("BENCHMARK.json has no list " ^ key)

let () =
  let benchmark_json, stc_exe =
    match Sys.argv with
    | [| _; j; e |] -> (j, e)
    | _ -> failwith "usage: test_perfbench.exe BENCHMARK.json STC_EXE"
  in
  mkdir_p dir;
  test "wrapped op-amp path draws Experiment's population" (fun () ->
      same_population small_opamp (Experiment.generate_opamp ?calibrate:None ?parallel:None));
  test "wrapped MEMS path draws Experiment's population" (fun () ->
      same_population small_mems (Experiment.generate_mems ?calibrate:None ?parallel:None));
  test "breakdown draw map equals the library's op-amp simulate" (fun () ->
      let device = Experiment.opamp_device ~calibrate:false () in
      let rng = Stc_numerics.Rng.create 3 in
      for _ = 1 to 3 do
        let draw = Stc_process.Variation.sample_all rng device.Montecarlo.params in
        let direct =
          Measure_opamp.to_array
            (Measure_opamp.measure (Qualify.opamp_params_of_draw draw))
        in
        expect (device.Montecarlo.simulate draw = Some direct) "spec vectors differ"
      done);
  test "exact counts repeat for one seed" (fun () ->
      let a, ca = run_counted small_mems ~seed:5 in
      let b, cb = run_counted small_mems ~seed:5 in
      expect (a.Qualify.errors = [] && b.Qualify.errors = []) "output checks failed";
      expect (Qualify.signature a = Qualify.signature b) "populations, flow or quality moved";
      expect (ca = cb) "SMO / kernel / candidate counts moved";
      expect (List.nth ca 1 > 0.0) "no SMO iterations counted";
      let c, _ = run_counted small_mems ~seed:6 in
      expect (c.Qualify.train_hash <> a.Qualify.train_hash) "seed does not change inputs");
  test "traced layers add up to the traced op" (fun () ->
      Trace.set_capacity 100_000;
      Trace.set_enabled true;
      let o = Qualify.run small_mems ~seed:7 ~dir in
      Trace.set_enabled false;
      let spans =
        match Trace.parse (Trace.to_text ()) with Ok s -> s | Error e -> failwith e
      in
      expect (Trace.check_well_formed spans = Ok ()) "trace not well formed";
      let selfs = fold_self_time spans in
      let layers = named_layers_s selfs in
      expect (Float.abs (layers -. o.Qualify.wall_s) < 0.1 *. o.Qualify.wall_s)
        "named layers do not cover the op's wall time";
      expect (List.assoc "mems" selfs > 0.0 && List.assoc "core" selfs > 0.0)
        "layers missing from the fold");
  test "self time fold" (fun () ->
      let sp id parent t dur = { Trace.id; parent; domain = 0; t_s = t; dur_s = dur } in
      let spans =
        [ (sp 2 1 0.1 0.3, "circuit.instance"); (sp 3 1 0.5 0.2, "compaction.train");
          (sp 4 3 0.55 0.05, "other"); (sp 1 0 0.0 1.0, "bench.qualify") ]
      in
      let selfs = fold_self_time spans in
      let near a b = Float.abs (a -. b) < 1e-12 in
      expect (near (List.assoc "bench" selfs) 0.5) "bench self";
      expect (near (named_layers_s selfs) 0.5) "named layers leave bench out";
      expect (near (List.assoc "circuit" selfs) 0.3) "circuit self";
      expect (near (List.assoc "core" selfs) 0.2) "unknown span joins its parent's layer");
  test "percentiles" (fun () ->
      let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
      expect (median xs = 50.0) "median";
      expect (percentile 99.0 xs = 99.0) "p99";
      expect (percentile 99.0 [| 3.0; 1.0 |] = 3.0) "p99 of two";
      let bs = [ (1.0, 0.0); (2.0, 10.0); (Float.infinity, 0.0) ] in
      expect (Float.abs (hist_percentile 50.0 bs -. 1.5) < 1e-12) "bucket interpolation");
  test "fastest repeat of each part" (fun () ->
      expect (fastest_sum [ [| 3.0; 1.0; 5.0 |]; [| 2.0; 4.0; 6.0 |] ] = 8.0)
        "not the sum of each part's fastest repeat";
      expect
        (match fastest_sum [ [| 1.0 |]; [| 1.0; 2.0 |] ] with
         | _ -> false
         | exception Invalid_argument _ -> true)
        "repeats with different parts accepted");
  test "BENCHMARK.json lists the metrics and workloads the benchmark prints" (fun () ->
      let json =
        match Json.of_string (read_file benchmark_json) with
        | Ok j -> j
        | Error e -> failwith e
      in
      expect (json_metrics json "end_to_end" = Catalog.end_to_end) "end_to_end differs";
      expect (json_metrics json "per_layer" = Catalog.per_layer) "per_layer differs";
      let names =
        match Json.member "workloads" json with
        | Some (Json.List ws) ->
          List.map (fun w -> match Json.member "name" w with Some (Json.Str n) -> n | _ -> "") ws
        | _ -> []
      in
      expect (names = Catalog.workloads) "workloads differ");
  test "served replies match offline verdicts across reloads" (fun () ->
      let st = Serve.build ~stc_exe ~dir ~seed:3 in
      expect (st.Serve.errors = []) (String.concat "; " st.Serve.errors);
      (* two windows, as in the traced run: the reload toggle carries over *)
      let window () =
        let results, _, _ =
          Serve.window st ~port:st.Serve.server.Serve.port ~seconds:0.75
            ~warmup:false
        in
        results
      in
      let results = window () @ window () in
      expect
        (List.for_all
           (fun (c : Serve.conn_result) ->
             List.for_all (fun (s : Serve.sample) -> s.rows_ok = Serve.batch_rows) c.samples)
           results)
        "a request was not answered in full";
      let stopped = Serve.stop st.Serve.server in
      List.iter
        (fun (c : Serve.conn_result) ->
          expect (c.failed = 0) (Option.value ~default:"failed" c.first_error))
        results;
      expect (List.exists (fun (c : Serve.conn_result) -> c.reloads > 0) results) "no reload";
      expect (List.for_all (fun (c : Serve.conn_result) -> c.ok_rows > 0) results) "no rows";
      expect stopped "server did not stop cleanly");
  Serve.kill_all ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
