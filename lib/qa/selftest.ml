module Report = Stc.Report
module Rng = Stc_numerics.Rng

type section = {
  name : string;
  cases : int;
  failures : int;
  detail : string;
  elapsed_s : float;
}

type report = {
  seed : int;
  sections : section list;
}

(* Each section folds a check over [cases] generated instances,
   recording the first counterexample but still counting the rest, so
   one bad case does not hide how widespread the breakage is. *)
let section ~name ~cases check =
  let t0 = Unix.gettimeofday () in
  let failures = ref 0 in
  let detail = ref "" in
  for i = 0 to cases - 1 do
    match check i with
    | Ok () -> ()
    | Error e ->
      incr failures;
      if !detail = "" then detail := Printf.sprintf "case %d: %s" i e
    | exception e ->
      incr failures;
      if !detail = "" then
        detail := Printf.sprintf "case %d raised %s" i (Printexc.to_string e)
  done;
  {
    name;
    cases;
    failures = !failures;
    detail = (if !detail = "" then "ok" else !detail);
    elapsed_s = Unix.gettimeofday () -. t0;
  }

let batch_sizes = [ 1; 7; 64 ]
let domain_counts = [ 1; 4 ]

let run ?(seed = 2005) ?(flows = 1000) ?(rows_per_flow = 16)
    ?(progress = fun _ -> ()) () =
  let st = Gen.state ~seed in
  let rng = Rng.create seed in
  let flow_pool =
    Array.init (Stdlib.max 1 (flows / 10)) (fun _ ->
        Gen.flow_with_rows ~rows_per_flow st)
  in
  let next_pooled i = flow_pool.(i mod Array.length flow_pool) in
  let sections = ref [] in
  let push s =
    progress
      (Printf.sprintf "%-28s %4d cases, %d failures (%.2f s)" s.name s.cases
         s.failures s.elapsed_s);
    sections := s :: !sections
  in

  (* 1. the acceptance bar: Floor vs the naive reference binner over
     every batch-size × domain-count combination, with and without a
     retest callback *)
  push
    (section ~name:"floor differential oracle" ~cases:flows (fun i ->
         let flow, rows = Gen.flow_with_rows ~rows_per_flow st in
         let retest =
           (* deterministic full-test stand-in: judge the complete row *)
           if i mod 2 = 0 then None
           else
             Some
               (fun row ->
                 Array.for_all2 Stc.Spec.passes flow.Stc.Compaction.specs row)
         in
         Oracle.floor_matches ?retest ~batch_sizes ~domain_counts flow rows));

  (* 2. persistence: print/parse/print canonicality and verdict
     stability across the disk format *)
  push
    (section ~name:"flow round trips" ~cases:flows (fun i ->
         let flow, rows = next_pooled i in
         match Oracle.flow_roundtrips flow with
         | Error _ as e -> e
         | Ok () -> Oracle.flow_verdicts_survive flow rows));

  (* 3. model serialisation and the brute-force decision oracle *)
  push
    (section ~name:"svm decision oracle" ~cases:(Stdlib.max 50 (flows / 4))
       (fun _ ->
         let dim = 1 + Rng.int rng 5 in
         let probe =
           Array.init dim (fun _ -> Rng.uniform rng (-1.5) 2.5)
         in
         let svr = Gen.svr ~dim st and svc = Gen.svc ~dim st in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () = Oracle.svr_agrees svr probe in
         let* () = Oracle.svc_agrees svc probe in
         let* () = Oracle.svr_roundtrips svr in
         Oracle.svc_roundtrips svc));

  push
    (section ~name:"svm: flat kernel" ~cases:(Stdlib.max 25 (flows / 8))
       (fun i ->
         let dim = 1 + Rng.int rng 6 in
         let n = 2 + Rng.int rng 24 in
         let rows =
           Array.init n (fun _ ->
               Array.init dim (fun _ -> Rng.uniform rng (-3.0) 3.0))
         in
         let gamma = Rng.uniform rng 0.05 2.0 in
         let coef0 = Rng.uniform rng (-1.0) 1.0 in
         let kernels =
           [
             Stc_svm.Kernel.linear;
             Stc_svm.Kernel.rbf gamma;
             Stc_svm.Kernel.Polynomial
               { gamma; coef0; degree = 2 + Rng.int rng 3 };
             Stc_svm.Kernel.Sigmoid { gamma; coef0 };
           ]
         in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () = Oracle.flat_kernel_agrees kernels rows in
         (* a staged flow per band family (Svr, Svc, Mlp, Constant in
            turn), single and paired, with at least one kept and one
            dropped spec *)
         let specs = Gen.specs ~min_specs:2 () st in
         let k = Array.length specs in
         let n_kept = 1 + Rng.int rng (k - 1) in
         let model () =
           match i mod 4 with
           | 0 -> Stc.Guard_band.Svr (Gen.svr ~dim:n_kept st)
           | 1 -> Stc.Guard_band.Svc (Gen.svc ~dim:n_kept st)
           | 2 -> Stc.Guard_band.Mlp (Gen.mlp ~dim:n_kept st)
           | _ -> Stc.Guard_band.constant (if Rng.bool rng then 1 else -1)
         in
         let band =
           if i / 4 mod 2 = 0 then Stc.Guard_band.single_model (model ())
           else
             let tight = model () in
             Stc.Guard_band.of_models ~tight ~loose:(model ())
         in
         let flow =
           {
             Stc.Compaction.specs;
             kept = Array.init n_kept Fun.id;
             dropped = Array.init (k - n_kept) (fun d -> n_kept + d);
             band = Some band;
             guard_fraction = Rng.uniform rng 0.0 0.01;
             measured_guard = Rng.bool rng;
           }
         in
         Oracle.staged_verdict_agrees flow (Gen.rows specs ~n:rows_per_flow st)));

  push
    (section ~name:"smo dual feasibility" ~cases:12 (fun _ ->
         let dim = 1 + Rng.int rng 3 in
         let c_svc, svc = Gen.trained_svc ~dim ~n:40 st in
         let c_svr, svr = Gen.trained_svr ~dim ~n:40 st in
         let probe = Array.init dim (fun _ -> Rng.uniform rng (-0.5) 1.5) in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () = Oracle.svc_dual_feasible ~c:c_svc svc in
         let* () = Oracle.svr_dual_feasible ~c:c_svr svr in
         let* () = Oracle.svc_agrees svc probe in
         Oracle.svr_agrees svr probe));

  (* 4. CSV interchange *)
  push
    (section ~name:"device CSV round trips" ~cases:(Stdlib.max 20 (flows / 20))
       (fun _ ->
         let specs = Gen.specs () st in
         let rows = Gen.rows specs ~n:(1 + Rng.int rng 20) st in
         Oracle.csv_roundtrips ~specs ~rows));

  (* 5. fault injection *)
  push
    (section ~name:"fault: corrupted flows" ~cases:(Stdlib.max 5 (flows / 50))
       (fun i ->
         let flow, _ = next_pooled i in
         match Faults.check_flow_corruption rng ~trials:20 flow with
         | Ok (_rejected, _accepted) -> Ok ()
         | Error _ as e -> e));

  push
    (section ~name:"fault: version skew" ~cases:5 (fun i ->
         let flow, _ = next_pooled i in
         Faults.check_version_skew flow));

  push
    (section ~name:"fault: bad device rows" ~cases:(Stdlib.max 5 (flows / 50))
       (fun i ->
         let flow, rows = next_pooled i in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () =
           Faults.check_csv_rejects_bad_rows rng ~trials:10
             ~specs:flow.Stc.Compaction.specs ~rows
         in
         Faults.check_floor_bad_rows rng ~trials:10 flow));

  push
    (section ~name:"fault: pool workers" ~cases:4 (fun i ->
         let domains = if i mod 2 = 0 then 1 else 4 in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () = Faults.check_pool_worker_failure ~domains in
         let* () = Faults.check_pool_worker_delay ~domains ~delay_s:0.02 in
         Faults.check_pool_misuse ()));

  (* 6. resilience: journals, degraded serving *)
  push
    (section ~name:"fault: corrupted journals"
       ~cases:(Stdlib.max 5 (flows / 50)) (fun _ ->
         let replay = Gen.journal st in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () =
           match Faults.check_journal_corruption rng ~trials:20 replay with
           | Ok (_rejected, _accepted) -> Ok ()
           | Error _ as e -> e
         in
         Faults.check_journal_truncation ()));

  push
    (section ~name:"fault: degraded serving" ~cases:3 (fun i ->
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () = Faults.check_floor_flaky_retest ~fail_first:(1 + i) in
         let* () = Faults.check_floor_degraded ~classify_permanent:(i mod 2 = 0) in
         Faults.check_floor_batch_deadline ()));

  push
    (section ~name:"fault: network serving" ~cases:2 (fun i ->
         let pooled = next_pooled i in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () = Net_faults.check_torn_frames pooled in
         let* () = Net_faults.check_mid_batch_disconnect pooled in
         let* () = Net_faults.check_write_after_close pooled in
         Net_faults.check_reload_inflight pooled));

  (* 6c. chaos: overload, slow clients, crashing engines — the server
     must shed, reap, and self-heal without ever dropping an accepted
     device or letting a fresh client diverge from the offline engine *)
  push
    (section ~name:"chaos: overload and self-healing" ~cases:1 (fun i ->
         let pooled = next_pooled i in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () = Net_faults.check_connection_flood pooled in
         let* () = Net_faults.check_slow_loris pooled in
         let* () = Net_faults.check_reply_ignorer pooled in
         Net_faults.check_breaker_cycle pooled));

  (* 6b. boundary-biased enrichment: bit-identical at any domain count,
     and the importance-weighted yield agrees with an independent
     uniform population (the weighted-vs-unweighted statistics oracle) *)
  push
    (section ~name:"enrichment oracle" ~cases:4 (fun i ->
         let device, limits = Gen.enrich_device st in
         let seed = seed + (31 * i) in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let* () =
           Oracle.enrichment_deterministic ~seed ~pilot:40 ~n:160 device
             ~limits
         in
         Oracle.enrichment_unbiased ~seed ~pilot:60 ~n:400 device ~limits));

  (* 6d. the learner zoo: MLP forward pass vs brute force, stc-mlp-1
     round trips, determinism of training across domain counts, and
     the MI ranker vs its full-rescan reference — including
     permutation invariance (the score depends on counts only) *)
  push
    (section ~name:"learner oracle" ~cases:(Stdlib.max 20 (flows / 20))
       (fun i ->
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         let dim = 1 + Rng.int rng 4 in
         let mlp = Gen.mlp ~dim st in
         let probe = Array.init dim (fun _ -> Rng.uniform rng (-2.0) 2.0) in
         let* () = Oracle.mlp_agrees mlp probe in
         let* () = Oracle.mlp_roundtrips mlp in
         let n = 8 + Rng.int rng 48 in
         let values = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0) in
         let labels =
           Array.init n (fun j ->
               if values.(j) > Rng.uniform rng (-1.0) 1.0 then 1 else -1)
         in
         let bins = 1 + Rng.int rng 12 in
         let* () = Oracle.mi_matches_ref ~bins ~labels values in
         let permutation = Array.init n (fun j -> j) in
         Rng.shuffle rng permutation;
         let* () =
           Oracle.mi_permutation_invariant ~bins ~permutation ~labels values
         in
         if i >= 4 then Ok ()
         else
           (* the expensive contract — training determinism across 1/2/4
              domains — on a handful of generated devices only *)
           let device, limits = Gen.enrich_device st in
           let config =
             { Stc_learn.Mlp.default_config with Stc_learn.Mlp.epochs = 40 }
           in
           Oracle.mlp_deterministic ~config ~seed:(seed + (17 * i)) ~n:60
             device ~limits));

  (* 7. observability: metric-exporter round trips and span nesting *)
  push
    (section ~name:"observability" ~cases:(Stdlib.max 20 (flows / 20))
       (fun i ->
         let module Obs = Stc_obs.Registry in
         let module Trace = Stc_obs.Trace in
         let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
         (* a scratch registry with random contents must survive the
            text exporter exactly *)
         let r = Obs.create () in
         let c = Obs.counter ~registry:r "stc_qa_cases_total" in
         let g = Obs.gauge ~registry:r "stc_qa_level" in
         let h = Obs.histogram ~registry:r "stc_qa_latency_s" in
         for _ = 0 to Rng.int rng 20 do
           Obs.Counter.add c (Rng.int rng 1000);
           Obs.Gauge.set g (Rng.uniform rng (-1e6) 1e6);
           Obs.Histogram.observe h (Rng.uniform rng 0.0 200.0)
         done;
         let* () =
           match Obs.parse_text (Obs.to_text ~registry:r ()) with
           | Error e -> Error ("metrics export does not parse: " ^ e)
           | Ok parsed ->
             if parsed = Obs.flatten ~registry:r () then Ok ()
             else Error "parsed metrics differ from the flatten view"
         in
         (* spans recorded around nested work must nest well-formedly
            and survive the trace-text round trip *)
         let was = Trace.enabled () in
         Trace.set_enabled true;
         Trace.clear ();
         Fun.protect
           ~finally:(fun () ->
             Trace.clear ();
             Trace.set_enabled was)
           (fun () ->
             let rec nest d =
               Trace.with_span
                 (Printf.sprintf "qa.depth.%d" d)
                 (fun () -> if d > 0 then nest (d - 1))
             in
             nest (1 + (i mod 4));
             let spans = Trace.spans () in
             let* () = Trace.check_well_formed spans in
             match Trace.parse (Trace.to_text ()) with
             | Error e -> Error ("trace export does not parse: " ^ e)
             | Ok parsed ->
               if parsed = spans then Ok ()
               else Error "parsed trace differs from retained spans")));

  { seed; sections = List.rev !sections }

let ok r = List.for_all (fun s -> s.failures = 0) r.sections

let render r =
  let rows =
    List.map
      (fun s ->
        [
          s.name;
          string_of_int s.cases;
          (if s.failures = 0 then "pass" else Printf.sprintf "%d FAIL" s.failures);
          Printf.sprintf "%.2f s" s.elapsed_s;
        ])
      r.sections
  in
  let table =
    Report.table
      ~title:(Printf.sprintf "stc selftest (seed %d)" r.seed)
      ~header:[ "section"; "cases"; "result"; "time" ]
      rows
  in
  let failures =
    List.filter_map
      (fun s -> if s.failures = 0 then None else Some (s.name ^ ": " ^ s.detail))
      r.sections
  in
  let verdict =
    if failures = [] then "selftest: all sections passed\n"
    else
      Printf.sprintf "selftest: FAILURES (reproduce with --seed %d)\n%s\n"
        r.seed
        (String.concat "\n" (List.map (fun f -> "  " ^ f) failures))
  in
  table ^ verdict
