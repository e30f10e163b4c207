type bin = Ship | Scrap | Retest

type outcome = {
  bin : bin;
  verdict : Guard_band.verdict;
  truth_good : bool;
}

type summary = {
  shipped : int;
  scrapped : int;
  retested : int;
  shipped_bad : int;
  scrapped_good : int;
  counts : Metrics.counts;
}

let run ?(resolve_guard = true) flow data =
  let n = Device_data.n_instances data in
  let flow_verdict = Compaction.flow_verdict flow in
  let outcomes =
    Array.init n (fun i ->
        let row = Device_data.instance_row data i in
        let truth_good = Device_data.passes_all data ~instance:i in
        let verdict = flow_verdict row in
        let bin =
          match verdict with
          | Guard_band.Good -> Ship
          | Guard_band.Bad -> Scrap
          | Guard_band.Guard ->
            if resolve_guard then (if truth_good then Ship else Scrap)
            else Retest
        in
        { bin; verdict; truth_good })
  in
  let shipped = ref 0 and scrapped = ref 0 and retested = ref 0 in
  let shipped_bad = ref 0 and scrapped_good = ref 0 in
  Array.iter
    (fun o ->
      (match o.verdict with
       | Guard_band.Guard -> incr retested
       | Guard_band.Good | Guard_band.Bad -> ());
      match o.bin with
      | Ship ->
        incr shipped;
        if not o.truth_good then incr shipped_bad
      | Scrap ->
        incr scrapped;
        if o.truth_good then incr scrapped_good
      | Retest -> ())
    outcomes;
  let counts =
    Metrics.tally
      ~truth:(Array.map (fun o -> o.truth_good) outcomes)
      ~verdicts:(Array.map (fun o -> o.verdict) outcomes)
  in
  ( outcomes,
    {
      shipped = !shipped;
      scrapped = !scrapped;
      retested = !retested;
      shipped_bad = !shipped_bad;
      scrapped_good = !scrapped_good;
      counts;
    } )

let with_lookup (flow : Compaction.flow) ~resolution =
  match flow.Compaction.band with
  | None -> None
  | Some band ->
    let dim = Array.length flow.Compaction.kept in
    if dim > 6 then None
    else begin
      let config = { Lookup.default_config with resolution } in
      Some (Lookup.build ~config ~dim (Guard_band.classify band))
    end

let lookup_flow_verdict (flow : Compaction.flow) table row =
  (* measured specs checked directly, the model verdict read from the
     table; mirrors Compaction.flow_verdict *)
  let features =
    Array.map
      (fun j -> Spec.normalize flow.Compaction.specs.(j) row.(j))
      flow.Compaction.kept
  in
  let table_flow =
    {
      flow with
      Compaction.band =
        Some
          (Guard_band.make
             ~tight:(fun _ ->
               match Lookup.lookup table features with
               | Guard_band.Good -> 1
               | Guard_band.Bad | Guard_band.Guard -> -1)
             ~loose:(fun _ ->
               match Lookup.lookup table features with
               | Guard_band.Good | Guard_band.Guard -> 1
               | Guard_band.Bad -> -1));
    }
  in
  Compaction.flow_verdict table_flow row
