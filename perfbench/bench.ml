(* perfbench: runs one named workload for a fixed time, checks its
   outputs, and prints every metric with its unit. The last line of
   standard output is one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). Run through run.sh, from the checkout root:
     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1 *)

open Common
module Metrics = Stc.Metrics

open Catalog

(* The self times of the named layers (the benchmark's own code left
   out) must add up to the traced wall time within this share; the
   op-amp simulator breakdown must account for the per-instance time
   within the same share. *)
let slack = 0.10

(* Set-up repetitions; set-up time is their median. A qualify set-up
   holds a whole warm-up qualification, so it is repeated fewer times. *)
let setup_reps = 7
let qualify_setup_reps = 5

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  e2e : (string, float) Hashtbl.t;
  layer : (string, float) Hashtbl.t;
  mutable info : (string * Json.t) list;  (** hashes, sizes, metadata *)
}

let fresh () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    e2e = Hashtbl.create 8;
    layer = Hashtbl.create 64;
    info = [];
  }

let error r msg = r.errors <- msg :: r.errors
let set tbl name v = Hashtbl.replace tbl name v
let info r k v = r.info <- r.info @ [ (k, v) ]
let str s = Json.Str s
let num x = Json.Num x

(* Quality of a flow on the held-out population, as the paper reports
   it. *)
let set_quality r ~kept (c : Metrics.counts) =
  set r.layer "core.tests_kept" (float_of_int kept);
  set r.layer "core.escape_pct" (Metrics.escape_pct c);
  set r.layer "core.yield_loss_pct" (Metrics.loss_pct c);
  set r.layer "core.guard_pct" (Metrics.guard_pct c)

(* Room for every span of one run; a full ring means spans were lost. *)
let trace_capacity = 1 lsl 18

(* Per-layer self times of the traced spans, per traced unit of work;
   the named layers must cover the traced wall time [e2e_s]. *)
let set_fold r ~dir ~workload ~seed ~units ~e2e_s =
  let text = Trace.to_text () in
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.txt" workload seed) in
  write_file path text;
  info r "trace_file" (str path);
  match Trace.parse text with
  | Error e -> error r ("trace does not parse: " ^ e)
  | Ok spans ->
    (match Trace.check_well_formed spans with
     | Ok () -> ()
     | Error e -> error r ("trace not well formed: " ^ e));
    if List.length spans >= trace_capacity then
      error r "trace ring buffer overflowed";
    let selfs = fold_self_time spans in
    let per = 1.0 /. float_of_int (Stdlib.max 1 units) in
    List.iter (fun (l, s) -> set r.layer ("self." ^ l ^ "_s") (s *. per)) selfs;
    let layers = named_layers_s selfs in
    set r.layer "trace.e2e_s" (e2e_s *. per);
    set r.layer "trace.layers_pct" (100.0 *. ratio layers e2e_s);
    if Float.abs (layers -. e2e_s) > slack *. e2e_s then
      error r
        (Printf.sprintf "named layers' self times sum to %.3fs, traced wall time %.3fs"
           layers e2e_s)

(* SVM work from a registry delta [d], over [busy_s] of training. *)
let set_svm r d ~busy_s =
  set r.layer "svm.smo_solves" (d "stc_smo_solves_total");
  set r.layer "svm.smo_iterations" (d "stc_smo_iterations_total");
  set r.layer "svm.kernel_evals" (d "stc_svm_kernel_evals_total");
  set r.layer "svm.kernel_evals_per_s" (ratio (d "stc_svm_kernel_evals_total") busy_s);
  let hits = d "stc_svm_cache_hits_total" and misses = d "stc_svm_cache_misses_total" in
  set r.layer "svm.cache_hit_ratio" (ratio hits (hits +. misses))

(* ------------------------------------------------------------------ *)
(* Set-up probe                                                        *)
(* ------------------------------------------------------------------ *)

(* One qualify set-up, measured in a fresh process: process start, the
   device's lazy initialisation (the op-amp calibration fit simulates the
   nominal device; MEMS calibrates likewise), and the warm-up op, op 0,
   in which the heap grows to the workload's size. *)
let cold_start (q : Qualify.t) ~seed ~dir =
  let ok =
    Qualify.init_device q
    && (Qualify.run q ~seed:(Qualify.sub_seed ~seed 0) ~dir).Qualify.errors = []
  in
  exit (if ok then 0 else 3)

let probe workload ~seed =
  let exe = Sys.executable_name in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--cold-start"; workload; "--seed"; string_of_int seed |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Some (now () -. t0)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Qualify workloads                                                   *)
(* ------------------------------------------------------------------ *)

let counter_names =
  [
    "stc_smo_solves_total"; "stc_smo_iterations_total";
    "stc_svm_kernel_evals_total"; "stc_compaction_candidates_total";
  ]

let run_qualify r (q : Qualify.t) ~seed ~seconds ~traced ~dir =
  let setups =
    List.filter_map
      (fun _ -> probe q.Qualify.name ~seed)
      (List.init qualify_setup_reps Fun.id)
  in
  if List.length setups <> qualify_setup_reps then error r "set-up probe failed";
  (* in-process lazy init, outside the timed ops *)
  if not (Qualify.init_device q) then error r "nominal device does not simulate";
  (* op [j] qualifies the population of sub-seed [j] *)
  let run_op j =
    let before = snapshot () in
    let o = Qualify.run q ~seed:(Qualify.sub_seed ~seed j) ~dir in
    let after = snapshot () in
    r.attempted <- r.attempted + 1;
    if o.Qualify.errors <> [] then begin
      r.failed <- r.failed + 1;
      List.iter (error r) o.Qualify.errors
    end;
    (o, (before, after))
  in
  (* op 0 is this process's warm-up, as in each set-up: the heap grows to
     the workload's size here, not in the timed ops. Its counts are the
     run's exact counts. *)
  let o, (before, after) = run_op 0 in
  set r.e2e "setup_s" (median (Array.of_list setups));
  let untraced = ref [] and traced_ops = ref [] and all_ops = ref [] in
  let overheads = ref [] in
  let op ~tracing j =
    Trace.set_enabled tracing;
    let o, d = run_op j in
    Trace.set_enabled false;
    all_ops := (o, d) :: !all_ops;
    if tracing then traced_ops := o :: !traced_ops else untraced := o :: !untraced;
    o
  in
  let t_end = now () +. seconds in
  let j = ref 1 in
  while now () < t_end || !untraced = [] do
    if traced then begin
      (* the traced run qualifies each sub-seed twice, untraced and
         traced, taking turns at going first, so the overhead compares
         the same population with itself *)
      let traced_first = !j mod 2 = 0 in
      let a = op ~tracing:traced_first !j in
      let b = op ~tracing:(not traced_first) !j in
      let t, u = if traced_first then (a, b) else (b, a) in
      if Qualify.signature t <> Qualify.signature u then
        error r (Printf.sprintf "op %d did not repeat exactly when traced" !j);
      overheads := ratio (t.Qualify.wall_s -. u.Qualify.wall_s) u.Qualify.wall_s :: !overheads
    end
    else begin
      (* the untraced run qualifies op 0's population again and again *)
      let again = op ~tracing:false 0 in
      if Qualify.signature again <> Qualify.signature o then
        error r "op 0's population did not repeat exactly"
    end;
    incr j
  done;
  let op_deltas = List.map (fun (_, (before, after)) -> delta ~before ~after) !all_ops in
  let all_ops = List.map fst !all_ops in
  let walls ops = Array.of_list (List.map (fun o -> o.Qualify.wall_s) ops) in
  let w = walls !untraced in
  (* the op at the host's fast moments: its parts are the simulate
     calls, in draw order, and the rest of the op, each at its fastest
     repeat *)
  let parts o =
    let sims = Array.of_list (List.rev o.Qualify.sims.Qualify.times) in
    Array.append sims [| o.Qualify.wall_s -. Array.fold_left ( +. ) 0.0 sims |]
  in
  let op_s = if traced then median w else fastest_sum (List.map parts !untraced) in
  set r.e2e "op_ms" (1000.0 *. op_s);
  set r.e2e "op_p50_ms" (1000.0 *. median w);
  set r.e2e "op_p90_ms" (1000.0 *. percentile 90.0 w);
  set r.e2e "op_p99_ms" (1000.0 *. percentile 99.0 w);
  set r.e2e "rows_per_s" (float_of_int (q.Qualify.n_train + q.Qualify.n_test) /. op_s);
  set r.e2e "peak_rss_mb" (peak_rss_mb ());
  set_quality r ~kept:o.Qualify.kept o.Qualify.counts;
  info r "sizes"
    (Json.Obj
       [ ("n_train", num (float_of_int q.Qualify.n_train));
         ("n_test", num (float_of_int q.Qualify.n_test)) ]);
  info r "train_hash" (str o.Qualify.train_hash);
  info r "test_hash" (str o.Qualify.test_hash);
  info r "flow_fingerprint" (str o.Qualify.fingerprint);
  info r "op_ms" (Json.List (List.rev_map (fun o -> num (1000.0 *. o.Qualify.wall_s)) !untraced));
  if traced then begin
    (* counts and quality are op 0's, exact for the seed; times are
       medians over ops *)
    let d = delta ~before ~after in
    let counts = List.map d counter_names in
    (* op 0 again must repeat its population, flow and counts exactly *)
    let again, (b2, a2) = run_op 0 in
    if Qualify.signature again <> Qualify.signature o
       || List.map (delta ~before:b2 ~after:a2) counter_names <> counts
    then error r "op 0 did not repeat exactly: populations, flow or counts moved";
    let ops = all_ops in
    let med f = median (Array.of_list (List.map f ops)) in
    let times = Array.of_list (List.concat_map (fun o -> o.Qualify.sims.Qualify.times) ops) in
    let inst = if q.Qualify.instance_span = "circuit.instance" then "circuit" else "mems" in
    set r.layer (inst ^ ".instance_ms_p50") (1000.0 *. median times);
    if inst = "circuit" then
      set r.layer "circuit.instance_ms_p99" (1000.0 *. percentile 99.0 times);
    let calls = List.fold_left (fun a o -> a + o.Qualify.sims.Qualify.calls) 0 ops in
    let fails = List.fold_left (fun a o -> a + o.Qualify.sims.Qualify.failed) 0 ops in
    set r.layer "process.discard_ratio" (ratio (float_of_int fails) (float_of_int calls));
    set r.layer "error_ratio" (ratio (float_of_int fails) (float_of_int calls));
    set r.layer "process.generate_s" (med (fun o -> o.Qualify.generate_s));
    set r.layer "core.greedy_s" (med (fun o -> o.Qualify.greedy_s));
    set r.layer "core.evaluate_s" (med (fun o -> o.Qualify.evaluate_s));
    let med_delta name = median (Array.of_list (List.map (fun d -> d name) op_deltas)) in
    set r.layer "core.train_s" (med_delta "stc_compaction_train_s.sum");
    set r.layer "core.validate_s" (med_delta "stc_compaction_validate_s.sum");
    set r.layer "core.candidates" (d "stc_compaction_candidates_total");
    set r.layer "core.accept_ratio"
      (ratio (d "stc_compaction_accepted_total") (d "stc_compaction_candidates_total"));
    set_svm r d ~busy_s:o.Qualify.greedy_s;
    set r.layer "floor.flow_write_ms" (1000.0 *. med (fun o -> o.Qualify.write_s));
    set r.layer "floor.flow_read_ms" (1000.0 *. med (fun o -> o.Qualify.read_s));
    set r.layer "floor.flow_bytes" (float_of_int o.Qualify.flow_bytes);
    let tw = walls !traced_ops in
    set r.layer "trace.overhead_pct" (100.0 *. median (Array.of_list !overheads));
    set_fold r ~dir ~workload:q.Qualify.name ~seed ~units:(Array.length tw)
      ~e2e_s:(Array.fold_left ( +. ) 0.0 tw);
    if inst = "circuit" then begin
      let parts = Qualify.breakdown ~sample:6 o.Qualify.inputs in
      let col f = 1000.0 *. median (Array.map (fun (_, b) -> f b) parts) in
      let dc = col (fun b -> b.Qualify.dc_s) and ac = col (fun b -> b.Qualify.ac_s) in
      let ts = col (fun b -> b.Qualify.tran_small_s) in
      let tl = col (fun b -> b.Qualify.tran_large_s) in
      set r.layer "circuit.dc_ms" dc;
      set r.layer "circuit.ac_ms" ac;
      set r.layer "circuit.tran_small_step_ms" ts;
      set r.layer "circuit.tran_large_step_ms" tl;
      (* the parts against the full simulate of the same instances, timed
         beside them, so machine speed drifts cancel *)
      let share =
        median
          (Array.map
             (fun (full, b) ->
               ratio (b.Qualify.dc_s +. b.Qualify.ac_s +. b.Qualify.tran_small_s
                      +. b.Qualify.tran_large_s) full)
             parts)
      in
      set r.layer "circuit.breakdown_pct" (100.0 *. share);
      if Float.abs (share -. 1.0) > slack then
        error r
          (Printf.sprintf
             "simulator breakdown accounts for %.1f%% of the instance time" (100.0 *. share))
    end
  end

(* ------------------------------------------------------------------ *)
(* floor_serve                                                         *)
(* ------------------------------------------------------------------ *)

let run_serve r ~stc_exe ~seed ~seconds ~traced ~dir =
  (* each set-up: population, both flows, their files, a fresh server to
     HEALTH OK and a warm-up; all but the last server are stopped *)
  let setups =
    List.init setup_reps (fun k ->
        let st, dt = time (fun () -> Serve.build ~stc_exe ~dir ~seed) in
        let (_ : Serve.conn_result list * float * float), warm_s =
          time (fun () ->
              Serve.window st ~port:st.Serve.server.Serve.port ~seconds:0.0 ~warmup:true)
        in
        if k < setup_reps - 1 && not (Serve.stop st.Serve.server) then
          error r "a set-up server did not stop cleanly";
        (st, dt +. warm_s))
  in
  let st = fst (List.nth setups (setup_reps - 1)) in
  List.iter
    (fun (s, _) ->
      if s.Serve.pool_hash <> st.Serve.pool_hash
         || s.Serve.fingerprint_a <> st.Serve.fingerprint_a
      then error r "set-up repetitions built different populations or flows")
    setups;
  set r.e2e "setup_s" (median (Array.of_list (List.map snd setups)));
  List.iter (error r) st.Serve.errors;
  let port = st.Serve.server.Serve.port in
  let before = Serve.scrape ~port in
  (* sub-windows; in the traced run every second one is traced *)
  let windows =
    List.init (Serve.sub_windows seconds) (fun k ->
        let tracing = traced && k mod 2 = 1 in
        Trace.set_enabled tracing;
        let w = Serve.window st ~port ~seconds:Serve.sub_window_s ~warmup:false in
        Trace.set_enabled false;
        (tracing, w))
  in
  let after = Serve.scrape ~port in
  let server_rss = peak_rss_mb ~pid:(string_of_int st.Serve.server.Serve.pid) () in
  let untraced = List.filter_map (fun (t, w) -> if t then None else Some w) windows in
  let traced_ws = List.filter_map (fun (t, w) -> if t then Some w else None) windows in
  let all = List.concat_map (fun (_, (rs, _, _)) -> rs) windows in
  List.iter
    (fun (c : Serve.conn_result) ->
      r.attempted <- r.attempted + c.requests + c.reloads;
      r.failed <- r.failed + c.failed;
      Option.iter (error r) c.first_error)
    all;
  let e = Serve.summarize untraced in
  set r.e2e "op_ms" (1000.0 *. e.Serve.p50);
  set r.e2e "op_p50_ms" (1000.0 *. e.Serve.p50);
  set r.e2e "op_p90_ms" (1000.0 *. e.Serve.p90);
  set r.e2e "op_p99_ms" (1000.0 *. e.Serve.p99);
  set r.e2e "rows_per_s" e.Serve.rows_per_s;
  set r.e2e "peak_rss_mb" server_rss;
  set_quality r ~kept:(Array.length st.Serve.flow_a.Stc.Compaction.kept) st.Serve.counts;
  info r "sizes"
    (Json.Obj
       [ ("n_train", num (float_of_int Serve.n_train));
         ("n_pool", num (float_of_int Serve.n_pool));
         ("batch_rows", num (float_of_int Serve.batch_rows));
         ("reload_every", num (float_of_int Serve.reload_every));
         ("connections", num (float_of_int (List.length Serve.roles))) ]);
  info r "train_hash" (str st.Serve.train_hash);
  info r "test_hash" (str st.Serve.pool_hash);
  info r "flow_fingerprint" (str st.Serve.fingerprint_a);
  info r "flow_fingerprint_b" (str st.Serve.fingerprint_b);
  info r "requests"
    (num (float_of_int (List.fold_left (fun a (c : Serve.conn_result) -> a + c.requests) 0 all)));
  if traced then begin
    let d = delta ~before ~after in
    let bs name = buckets ~before ~after name in
    set r.layer "mems.instance_ms_p50" (1000.0 *. median st.Serve.instance_times);
    set r.layer "process.generate_s" st.Serve.generate_s;
    (let before, after = st.Serve.make_flow_counts in
     set_svm r (delta ~before ~after) ~busy_s:st.Serve.make_flow_s);
    set r.layer "core.evaluate_s" st.Serve.evaluate_s;
    set r.layer "floor.flow_write_ms" (1000.0 *. st.Serve.write_s);
    set r.layer "floor.flow_read_ms" (1000.0 *. st.Serve.read_s);
    set r.layer "floor.flow_bytes" (float_of_int st.Serve.flow_bytes);
    set r.layer "floor.process_rows_per_s" (Serve.direct_rows_per_s st ~min_s:0.5);
    set r.layer "floor.batch_ms_p50" (1000.0 *. hist_percentile 50.0 (bs "stc_floor_batch_s"));
    set r.layer "floor.batch_ms_p99" (1000.0 *. hist_percentile 99.0 (bs "stc_floor_batch_s"));
    set r.layer "floor.retest_ratio"
      (ratio (d "stc_floor_retested_total") (d "stc_floor_devices_total"));
    let flushes = d "stc_net_flushes_total" in
    set r.layer "net.flushes" flushes;
    set r.layer "net.deadline_flushes" (d "stc_net_deadline_flushes_total");
    let bin_rows = List.fold_left (fun a (c : Serve.conn_result) -> a + c.bin_rows) 0 all in
    set r.layer "net.rows_per_flush" (ratio (float_of_int bin_rows) flushes);
    set r.layer "net.backpressure_stalls" (d "stc_net_backpressure_stalls_total");
    set r.layer "net.flush_ms_p99" (1000.0 *. hist_percentile 99.0 (bs "stc_net_flush_s"));
    set r.layer "net.errors" (d "stc_net_errors_total");
    set r.layer "net.reloads" (d "stc_net_reloads_total");
    let reloads = Array.of_list (List.concat_map (fun (c : Serve.conn_result) -> c.reload_latencies) all) in
    set r.layer "net.reload_ms_p50" (1000.0 *. median reloads);
    set r.layer "error_ratio" (ratio (float_of_int r.failed) (float_of_int r.attempted));
    (* each traced sub-window against the untraced one before it *)
    let overheads =
      List.map2
        (fun u t ->
          let u = (Serve.summary u).Serve.p50 and t = (Serve.summary t).Serve.p50 in
          ratio (t -. u) u)
        (List.filteri (fun k _ -> k < List.length traced_ws) untraced)
        traced_ws
    in
    set r.layer "trace.overhead_pct" (100.0 *. median (Array.of_list overheads));
    (* one connection span per connection covers its traced sub-window *)
    let conns = List.length Serve.roles in
    set_fold r ~dir ~workload:"floor_serve" ~seed ~units:(conns * List.length traced_ws)
      ~e2e_s:(float_of_int conns *. List.fold_left (fun a (_, _, w) -> a +. w) 0.0 traced_ws)
  end;
  if not (Serve.stop st.Serve.server) then error r "server did not stop cleanly"

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let meta ~workload ~seed ~seconds ~traced =
  Json.Obj
    [
      ("workload", str workload);
      ("seed", num (float_of_int seed));
      ("seconds", num seconds);
      ("trace", Json.Bool traced);
      ("git_rev", str (git_rev ()));
      ("ocaml", str Sys.ocaml_version);
      ("recommended_domains", num (float_of_int (Domain.recommended_domain_count ())));
      ("nproc", num (float_of_int (nproc ())));
      ("started_at", num (Clock.wall ()));
    ]

let metrics_json names tbl =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
         (name, Json.Obj [ ("value", num v); ("unit", str unit) ]))
       names)

(* Paths from the checkout root, where run.sh starts the benchmark after
   building both executables. *)
let out_dir = "perfbench/out"
let stc_exe = "_build/default/bin/stc_cli.exe"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 in
  let trace = ref 0 in
  let cold = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " (workloads @ unlisted_workloads));
      ("--seed", Arg.Set_int seed, "N  workload seed (inputs are a function of it)");
      ("--seconds", Arg.Set_float seconds, "S  measurement window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--cold-start", Arg.Set_string cold, "W  (internal) the set-up probe");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let qualify_of = function
    | "opamp_qualify" -> Qualify.opamp_qualify
    | _ -> Qualify.mems_compact
  in
  if !cold <> "" then cold_start (qualify_of !cold) ~seed:!seed ~dir:out_dir;
  if not (List.mem !workload (workloads @ unlisted_workloads)) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seed N>=0, --seconds S>0 and --trace 0|1 are required";
    exit 2
  end;
  let traced = !trace = 1 in
  mkdir_p out_dir;
  Trace.set_capacity trace_capacity;
  Trace.set_enabled false;
  let r = fresh () in
  (try
     if !workload = "floor_serve" then
       run_serve r ~stc_exe ~seed:!seed ~seconds:!seconds ~traced ~dir:out_dir
     else
       run_qualify r (qualify_of !workload) ~seed:!seed ~seconds:!seconds ~traced
         ~dir:out_dir
   with e ->
     r.failed <- r.failed + 1;
     r.attempted <- Stdlib.max 1 r.attempted;
     error r ("aborted: " ^ Printexc.to_string e));
  Serve.kill_all ();
  let errors = List.rev r.errors in
  let correct = errors = [] && r.failed = 0 in
  let shown = if traced then per_layer else end_to_end in
  let tbl = if traced then r.layer else r.e2e in
  let meta = meta ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "# meta %s\n" (Json.to_string ~indent:false meta);
  List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k (Json.to_string ~indent:false v)) r.info;
  let print names tbl =
    List.iter
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
        Printf.printf "%-28s %14.6g %s%s\n" name v unit
          (if List.mem name exact then "  (exact)" else ""))
      names
  in
  print end_to_end r.e2e;
  (* test quality beside cost, in every run *)
  if traced then print per_layer r.layer
  else print (List.filter (fun (n, _) -> List.mem n quality) per_layer) r.layer;
  List.iter (fun e -> Printf.printf "# CHECK FAILED: %s\n" e) errors;
  let fields =
    [
      ("correct", Json.Bool correct);
      ("attempted", num (float_of_int (Stdlib.max 1 r.attempted)));
      ("failed", num (float_of_int r.failed));
      ("metrics", metrics_json shown tbl);
    ]
  in
  let record =
    Json.Obj
      (fields
      @ [
          ("meta", meta);
          ("info", Json.Obj r.info);
          ("end_to_end", metrics_json end_to_end r.e2e);
          ("reported", metrics_json reported r.e2e);
          ("per_layer", if traced then metrics_json per_layer r.layer else Json.Null);
          ("exact", Json.List (List.map str exact));
          ("errors", Json.List (List.map str errors));
        ])
  in
  write_file
    (Filename.concat out_dir (Printf.sprintf "result-%s-%d-trace%d.json" !workload !seed !trace))
    (Json.to_string record ^ "\n");
  print_endline (Json.to_string ~indent:false (Json.Obj fields));
  exit (if correct then 0 else 1)
