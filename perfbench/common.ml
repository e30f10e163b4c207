(* Shared plumbing for the benchmark: timing, percentiles, registry
   deltas, population hashes, run metadata and the trace fold. *)

module Clock = Stc_obs.Clock
module Json = Stc_obs.Json
module Registry = Stc_obs.Registry
module Trace = Stc_obs.Trace

let now = Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Spans recorded from the benchmark's own code around each layer call;
   a no-op thunk call while tracing is off. *)
let span = Trace.with_span

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile, [p] in (0, 100]; 0.0 on an empty sample. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
  end

let median xs = percentile 50.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The cost of an op a run repeats, at the host's fast moments. A host
   that shares its cores only ever slows work down, for seconds to
   minutes at a time, so each part of the op costs its fastest repeat.
   [rounds] are the repeats, each the times of the op's parts in order;
   the result is the sum over parts of each part's fastest time. *)
let fastest_sum (rounds : float array list) =
  match rounds with
  | [] -> 0.0
  | first :: _ ->
    let n = Array.length first in
    if List.exists (fun r -> Array.length r <> n) rounds then
      invalid_arg "fastest_sum: repeats with different parts";
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. List.fold_left (fun m r -> Float.min m r.(i)) Float.infinity rounds
    done;
    !total

(* ------------------------------------------------------------------ *)
(* Metric registry views                                               *)
(* ------------------------------------------------------------------ *)

(* The flattened scalar view ([Registry.flatten] / [parse_text]): a
   counter or gauge is one pair, a histogram [h] is [h.count], [h.sum]
   and one [h.le_<bound>] pair per bucket. *)
type scalars = (string * float) list

let snapshot () : scalars = Registry.flatten ()

let get (m : scalars) name =
  match List.assoc_opt name m with Some v -> v | None -> 0.0

let delta ~(before : scalars) ~(after : scalars) name =
  get after name -. get before name

(* Histogram buckets of [name] as (upper bound, count) in bound order,
   from the difference of two snapshots. *)
let buckets ~before ~after name =
  let prefix = name ^ ".le_" in
  let lp = String.length prefix in
  List.filter_map
    (fun (k, _) ->
      if String.length k > lp && String.sub k 0 lp = prefix then
        let label = String.sub k lp (String.length k - lp) in
        let bound =
          if label = "inf" then Float.infinity else float_of_string label
        in
        Some (bound, delta ~before ~after k)
      else None)
    after
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

(* Percentile estimate from bucket counts, interpolating linearly inside
   the bucket that holds the rank; the overflow bucket reads as its
   lower edge. 0.0 when the histogram saw nothing. *)
let hist_percentile p bs =
  let total = List.fold_left (fun acc (_, n) -> acc +. n) 0.0 bs in
  if total <= 0.0 then 0.0
  else begin
    let rank = p /. 100.0 *. total in
    let rec walk lo seen = function
      | [] -> lo
      | (hi, n) :: rest ->
        if n > 0.0 && seen +. n >= rank then
          if hi = Float.infinity then lo
          else lo +. ((hi -. lo) *. (rank -. seen) /. n)
        else walk (if hi = Float.infinity then lo else hi) (seen +. n) rest
    in
    walk 0.0 0.0 bs
  end

(* ------------------------------------------------------------------ *)
(* Hashes                                                              *)
(* ------------------------------------------------------------------ *)

(* Hash of a population's spec values, bit-exact (hex floats), so a
   simulator change that moves any value in any row shows. *)
let population_hash rows =
  let buf = Buffer.create (Array.length rows * 256) in
  Array.iter
    (fun row ->
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h," v)) row;
      Buffer.add_char buf '\n')
    rows;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16

(* ------------------------------------------------------------------ *)
(* Process and machine facts                                           *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Peak resident set size in MB from /proc/<pid>/status (VmHWM);
   0.0 where procfs is unavailable. *)
let peak_rss_mb ?(pid = "self") () =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] -> (
          match
            List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest))
          with
          | kb :: _ -> (
            match float_of_string_opt kb with
            | Some kb -> kb /. 1024.0
            | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' text)

(* First line of a command's stdout, or None when it cannot run. *)
let command_line cmd args =
  match Unix.open_process_args_in cmd (Array.append [| cmd |] args) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> line
     | _ -> None
     | exception Unix.Unix_error _ -> None)

let nproc () =
  match command_line "nproc" [||] with
  | Some s -> (match int_of_string_opt s with Some n -> n | None -> 0)
  | None -> 0

(* The checkout's own git revision; "none" outside a git work tree
   (a parent directory's repository does not count). *)
let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
    match command_line "git" [| "rev-parse"; "--short=12"; "HEAD" |] with
    | Some r when r <> "" -> r
    | _ -> "none"

(* ------------------------------------------------------------------ *)
(* Trace fold                                                          *)
(* ------------------------------------------------------------------ *)

(* The repo's modules, as the layers the benchmark reports on; span
   names are "<layer>.<what>". Library spans named "compaction.*"
   belong to [core]. A span under any other prefix counts towards the
   layer of its nearest known ancestor. [svm] runs inside [core]'s
   compaction calls, so it has no spans of its own: its share shows in
   core's self time and its work in the SMO and kernel counters. *)
let layers = [ "bench"; "circuit"; "mems"; "process"; "core"; "floor"; "net" ]

let layer_of_name name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  if prefix = "compaction" then Some "core"
  else if List.mem prefix layers then Some prefix
  else None

(* Folds completed spans into per-layer self time: a span's duration
   minus the part its children cover. Returns (layer, seconds) for
   every layer in [layers] order. *)
let fold_self_time (spans : (Trace.span * string) list) =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun ((s : Trace.span), name) -> Hashtbl.replace by_id s.id (s, name)) spans;
  let child_time = Hashtbl.create (List.length spans) in
  List.iter
    (fun ((s : Trace.span), _) ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. s.dur_s))
    spans;
  let rec layer_of (s : Trace.span) name =
    match layer_of_name name with
    | Some l -> l
    | None -> (
      match Hashtbl.find_opt by_id s.parent with
      | Some (p, pname) -> layer_of p pname
      | None -> "bench")
  in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun ((s : Trace.span), name) ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let self = s.dur_s -. covered in
      let l = layer_of s name in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals l) in
      Hashtbl.replace totals l (prev +. self))
    spans;
  List.map (fun l -> (l, Option.value ~default:0.0 (Hashtbl.find_opt totals l))) layers

(* Self time of the repo's layers, the benchmark's own code left out. *)
let named_layers_s selfs =
  List.fold_left (fun acc (l, s) -> if l = "bench" then acc else acc +. s) 0.0 selfs
