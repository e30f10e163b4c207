(* The serve-a-floor workload: the paper's MEMS production flow served by
   `stc server` in its own process, under a closed-loop load of BATCH
   requests on one connection and pipelined BIN rows with hot reloads
   on another. *)

open Common
module Experiment = Stc.Experiment
module Compaction = Stc.Compaction
module Device_data = Stc.Device_data
module Metrics = Stc.Metrics
module Floor = Stc_floor.Floor
module Flow_io = Stc_floor.Flow_io
module Client = Stc_net.Client

(* The flows are trained on `stc mems`'s default 800 instances. The
   request rows and the request size are those of the repo's network
   bench (bench/main.ml: 4000 rows in 512-row BATCH requests). *)
let n_train = 800
let n_pool = 4000
let batch_rows = 512

(* Connection B's station changes product once per lot: it bins a lot
   of 15 requests (7680 devices) and then loads the other product's
   flow, so every 16th cycle of B is a RELOAD. A 30 s window holds
   dozens of reloads. *)
let reload_every = 16
let warmup_requests = 8
let route = "mems"

(* Hot and cold tests dropped, guard ±2.5 % (the paper's MEMS flow); the
   second flow differs only in its guard fraction, so it has another
   fingerprint and bins some guard-band rows differently. *)
let dropped =
  Array.append Experiment.mems_cold_indices Experiment.mems_hot_indices

let config_a = Experiment.mems_config
let config_b = { Experiment.mems_config with Compaction.guard_fraction = 0.02 }

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int }

(* Every server this process started, so an early exit still stops it. *)
let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let reap pid = live := List.filter (( <> ) pid) !live

(* Waits for [pid] to exit, killing it after [timeout_s]. *)
let wait_exit ?(timeout_s = 10.0) pid =
  let deadline = now () +. timeout_s in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
      end
      else begin
        Unix.sleepf 0.005;
        loop ()
      end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let ok = loop () in
  reap pid;
  ok

(* Spawns `stc server` on an ephemeral port, with its default batching
   settings, and waits until it answers HEALTH. *)
let spawned = ref 0

let spawn ~stc_exe ~dir ~path =
  incr spawned;
  let log = Filename.concat dir (Printf.sprintf "server-%d.log" !spawned) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    [| stc_exe; "server"; "--listen"; "0"; "--flow"; route ^ "=" ^ path |]
  in
  let pid = Unix.create_process stc_exe argv Unix.stdin fd fd in
  Unix.close fd;
  live := pid :: !live;
  let deadline = now () +. 30.0 in
  let rec port () =
    let text = try read_file log with Sys_error _ -> "" in
    let found =
      List.find_map
        (fun line ->
          match Scanf.sscanf_opt line "listening on %s@:%d" (fun _ p -> p) with
          | Some p -> Some p
          | None -> None)
        (String.split_on_char '\n' text)
    in
    match found with
    | Some p -> p
    | None ->
      if now () > deadline then failwith ("server did not start:\n" ^ text);
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> reap pid; failwith ("server exited at start:\n" ^ text));
      Unix.sleepf 0.002;
      port ()
  in
  let port = port () in
  let c = Client.connect ~port () in
  let rec healthy tries =
    match Client.health c () with
    | Ok _ -> ()
    | Error e ->
      if tries = 0 then failwith ("server never healthy: " ^ e);
      Unix.sleepf 0.01;
      healthy (tries - 1)
  in
  healthy 500;
  Client.quit c;
  { pid; port }

let stop server =
  let c = Client.connect ~port:server.port () in
  let asked = Client.shutdown c in
  Client.close c;
  let exited = wait_exit server.pid in
  asked = Ok () && exited

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup = {
  server : server;
  pool : float array array;
  requests : float array array array;  (** request [i] is [requests.(i mod n)] *)
  expect_a : Floor.outcome array array;  (** offline verdicts per request, flow A *)
  expect_b : Floor.outcome array array;  (** offline verdicts per request, flow B *)
  path_a : string;
  path_b : string;
  flow_a : Compaction.flow;
  train_hash : string;
  pool_hash : string;
  fingerprint_a : string;
  fingerprint_b : string;
  counts : Metrics.counts;  (** flow A on the pool population *)
  instance_times : float array;
  generate_s : float;
  make_flow_s : float;
  make_flow_counts : scalars * scalars;  (** registry around make_flow *)
  write_s : float;
  read_s : float;
  evaluate_s : float;
  flow_bytes : int;
  serving_b : bool Atomic.t;  (** which flow file the server last loaded *)
  errors : string list;
}

(* Offline verdicts as the server computes them: escalated guard rows go
   to the full specification test carried on the wire row. *)
let offline flow rows =
  Floor.with_engine flow (fun engine ->
      Floor.process ~retest:(Floor.full_test flow) engine rows)

let fingerprint flow =
  match Flow_io.fingerprint flow with Ok f -> f | Error e -> failwith e

(* Request [i] is rows [i*batch_rows ..] of [arr], wrapping around; the
   requests repeat after [n / gcd n batch_rows] of them. *)
let requests arr =
  let n = Array.length arr in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  Array.init (n / gcd n batch_rows) (fun i ->
      Array.init batch_rows (fun k -> arr.(((i * batch_rows) + k) mod n)))

let build ~stc_exe ~dir ~seed =
  let errors = ref [] in
  let check ok msg = if not ok then errors := msg :: !errors in
  let device, sims =
    Qualify.wrap ~instance_span:"mems.instance" (Experiment.mems_device ())
  in
  let (train, test), generate_s =
    time (fun () ->
        span "process.generate" (fun () ->
            let q =
              { Qualify.mems_compact with Qualify.n_train; n_test = n_pool }
            in
            let _, train, test = Qualify.generate q device ~seed in
            (train, test)))
  in
  let svm_before = snapshot () in
  let (flow_a, flow_b), make_flow_s =
    time (fun () ->
        span "core.make_flow" (fun () ->
            ( Compaction.make_flow config_a train ~dropped,
              Compaction.make_flow config_b train ~dropped )))
  in
  let svm_after = snapshot () in
  let path_a = Filename.concat dir "floor_serve-a.flow" in
  let path_b = Filename.concat dir "floor_serve-b.flow" in
  let saved, write_s =
    time (fun () -> span "floor.flow_write" (fun () -> Flow_io.save ~path:path_a flow_a))
  in
  check (saved = Ok ()) "flow A did not save";
  check (Flow_io.save ~path:path_b flow_b = Ok ()) "flow B did not save";
  let loaded, read_s =
    time (fun () -> span "floor.flow_read" (fun () -> Flow_io.load ~path:path_a))
  in
  let on_disk = read_file path_a in
  check (Flow_io.to_string flow_a = Ok on_disk) "flow A file differs from to_string";
  (match loaded with
   | Ok f -> check (Flow_io.to_string f = Ok on_disk) "flow A does not round-trip"
   | Error e -> check false ("flow A did not load: " ^ e));
  let fingerprint_a = fingerprint flow_a and fingerprint_b = fingerprint flow_b in
  check (fingerprint_a <> fingerprint_b) "the two flows share a fingerprint";
  let counts, evaluate_s =
    time (fun () -> span "core.evaluate" (fun () -> Compaction.evaluate_flow flow_a test))
  in
  let pool = Device_data.values test in
  let expect_a = requests (offline flow_a pool) in
  let expect_b = requests (offline flow_b pool) in
  let server =
    span "net.spawn" (fun () -> spawn ~stc_exe ~dir ~path:path_a)
  in
  {
    server;
    pool;
    requests = requests pool;
    expect_a;
    expect_b;
    path_a;
    path_b;
    flow_a;
    train_hash = population_hash (Device_data.values train);
    pool_hash = population_hash pool;
    fingerprint_a;
    fingerprint_b;
    counts;
    instance_times = Array.of_list sims.Qualify.times;
    generate_s;
    make_flow_s;
    make_flow_counts = (svm_before, svm_after);
    write_s;
    read_s;
    evaluate_s;
    flow_bytes = String.length on_disk;
    serving_b = Atomic.make false;
    errors = List.rev !errors;
  }

(* ------------------------------------------------------------------ *)
(* The load                                                            *)
(* ------------------------------------------------------------------ *)

(* One BATCH or BIN+FLUSH request. *)
type sample = {
  done_at : float;  (** completion, on the monotonic clock *)
  latency_s : float;
  rows_ok : int;  (** rows answered with correct verdicts *)
}

type conn_result = {
  samples : sample list;
  reload_latencies : float list;
  requests : int;
  reloads : int;
  bin_rows : int;
  ok_rows : int;
  failed : int;  (** ERR replies, wrong verdicts, reloads that did not swap *)
  first_error : string option;
}

let at arr i = arr.(i mod Array.length arr)

(* One connection's closed loop until [deadline]: each request waits for
   its reply. Role [`Batch] sends BATCH requests; role [`Stream] sends
   pipelined BIN rows and a FLUSH, with a RELOAD every [reload_every]th
   cycle that toggles the route between the two flow files. [first]
   offsets the pool so the two connections send different rows. A
   request that fails its check is recorded as taking the whole window
   [window_s], so it misses any latency limit. *)
let drive (st : setup) ~port ~role ~first ~deadline ~window_s ~warmup =
  let c = Client.connect ~port () in
  let samples = ref [] and rlat = ref [] in
  let requests = ref 0 and reloads = ref 0 and bin_rows = ref 0 in
  let ok_rows = ref 0 and failed = ref 0 and first_error = ref None in
  let fail msg =
    incr failed;
    if !first_error = None then first_error := Some msg
  in
  let record ~i ~t0 name r =
    let done_at = now () in
    let sample latency_s rows_ok = samples := { done_at; latency_s; rows_ok } :: !samples in
    match r with
    | Ok outs when outs = at st.expect_a i || outs = at st.expect_b i ->
      ok_rows := !ok_rows + Array.length outs;
      sample (done_at -. t0) (Array.length outs)
    | Ok _ ->
      fail (name ^ " reply differs from both flows' offline verdicts");
      sample window_s 0
    | Error e ->
      fail (name ^ ": " ^ e);
      sample window_s 0
  in
  let cycle i =
    match role with
    | `Batch ->
      let rows = at st.requests i in
      let t0 = now () in
      let r = span "net.batch" (fun () -> Client.bin_batch c ~flow:route rows) in
      incr requests;
      record ~i ~t0 "BATCH" r
    | `Stream when i mod reload_every = reload_every - 1 ->
      let path = if Atomic.get st.serving_b then st.path_a else st.path_b in
      let t0 = now () in
      let r = span "net.reload" (fun () -> Client.reload c ~flow:route ~path ()) in
      incr reloads;
      (match r with
       | Ok (`Reloaded, _) ->
         Atomic.set st.serving_b (not (Atomic.get st.serving_b));
         rlat := (now () -. t0) :: !rlat
       | Ok (`Unchanged, d) -> fail ("RELOAD did not swap: " ^ d)
       | Error e -> fail ("RELOAD: " ^ e))
    | `Stream ->
      let rows = at st.requests i in
      let t0 = now () in
      let r = span "net.stream" (fun () -> Client.stream c ~flow:route rows) in
      incr requests;
      bin_rows := !bin_rows + Array.length rows;
      record ~i ~t0 "BIN+FLUSH" r
  in
  let i = ref first in
  if warmup then
    for _ = 1 to warmup_requests do
      cycle !i;
      incr i
    done
  else
    span "bench.connection" (fun () ->
        while now () < deadline do
          cycle !i;
          incr i
        done);
  Client.quit c;
  {
    samples = !samples;
    reload_latencies = !rlat;
    requests = !requests;
    reloads = !reloads;
    bin_rows = !bin_rows;
    ok_rows = !ok_rows;
    failed = !failed;
    first_error = !first_error;
  }

(* One connection per core of the 2-vCPU machine the benchmark was
   tuned on: connection A sends BATCH requests, B streams BIN rows and
   reloads. *)
let roles = [ `Batch; `Stream ]

(* Runs both connections for [seconds], one domain each; they start at
   different requests. Returns the results, the window's start and its
   wall time. *)
let window (st : setup) ~port ~seconds ~warmup =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let stride = Array.length st.requests / List.length roles in
  let run k role () =
    drive st ~port ~role ~first:(k * stride) ~deadline ~window_s:seconds ~warmup
  in
  let results =
    match List.mapi run roles with
    | [] -> []
    | main :: others ->
      let ds = List.map Domain.spawn others in
      let r = main () in
      r :: List.map Domain.join ds
  in
  (results, t0, now () -. t0)

(* A run's window is a sequence of sub-windows of [sub_window_s], each
   with fresh connections. The e2e figures are medians over
   sub-windows, so a host stall that hits a few seconds of the run moves
   few of them; a traced run alternates untraced and traced ones. *)
let sub_window_s = 3.0

let sub_windows seconds = Stdlib.max 1 (int_of_float (Float.round (seconds /. sub_window_s)))

let latencies samples = Array.of_list (List.map (fun s -> s.latency_s) samples)

type summary = { p50 : float; p90 : float; p99 : float; rows_per_s : float }

(* One sub-window's request latency percentiles and correct rows per
   second of its wall time. *)
let summary (results, _, wall_s) =
  let w = latencies (List.concat_map (fun c -> c.samples) results) in
  {
    p50 = median w;
    p90 = percentile 90.0 w;
    p99 = percentile 99.0 w;
    rows_per_s = float_of_int (List.fold_left (fun a c -> a + c.ok_rows) 0 results) /. wall_s;
  }

(* Medians over sub-windows. *)
let summarize windows =
  let ss = Array.of_list (List.map summary windows) in
  let over f = median (Array.map f ss) in
  {
    p50 = over (fun s -> s.p50);
    p90 = over (fun s -> s.p90);
    p99 = over (fun s -> s.p99);
    rows_per_s = over (fun s -> s.rows_per_s);
  }

(* Server-side counters (the METRICS scrape, stc-metrics-1 text). *)
let scrape ~port =
  let c = Client.connect ~port () in
  let r = Client.metrics c () in
  Client.quit c;
  match r with
  | Error e -> failwith ("METRICS: " ^ e)
  | Ok text -> (
    match Registry.parse_text text with
    | Ok m -> m
    | Error e -> failwith ("METRICS parse: " ^ e))

(* Direct Floor.process on the pool, in the load generator: rows per
   second over at least [min_s] seconds of repeated passes. *)
let direct_rows_per_s st ~min_s =
  Floor.with_engine st.flow_a (fun engine ->
      let retest = Floor.full_test st.flow_a in
      let t0 = now () in
      let rows = ref 0 and last = ref [||] in
      while now () -. t0 < min_s do
        last := span "floor.process" (fun () -> Floor.process ~retest engine st.pool);
        rows := !rows + Array.length !last
      done;
      let rate = float_of_int !rows /. (now () -. t0) in
      if requests !last <> st.expect_a then failwith "direct Floor.process verdicts moved";
      rate)
