let fp = Printf.sprintf "%.17g"

let kernel_to_string = function
  | Kernel.Linear -> "linear"
  | Kernel.Rbf { gamma } -> Printf.sprintf "rbf %s" (fp gamma)
  | Kernel.Polynomial { gamma; coef0; degree } ->
    Printf.sprintf "poly %s %s %d" (fp gamma) (fp coef0) degree
  | Kernel.Sigmoid { gamma; coef0 } ->
    Printf.sprintf "sigmoid %s %s" (fp gamma) (fp coef0)

let kernel_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "linear" ] -> Ok Kernel.Linear
  | [ "rbf"; g ] ->
    (match float_of_string_opt g with
     | Some gamma -> Ok (Kernel.Rbf { gamma })
     | None -> Error "bad rbf gamma")
  | [ "poly"; g; c0; d ] ->
    (match (float_of_string_opt g, float_of_string_opt c0, int_of_string_opt d) with
     | Some gamma, Some coef0, Some degree ->
       Ok (Kernel.Polynomial { gamma; coef0; degree })
     | _ -> Error "bad poly parameters")
  | [ "sigmoid"; g; c0 ] ->
    (match (float_of_string_opt g, float_of_string_opt c0) with
     | Some gamma, Some coef0 -> Ok (Kernel.Sigmoid { gamma; coef0 })
     | _ -> Error "bad sigmoid parameters")
  | _ -> Error "unknown kernel"

(* shared flat format for both model families *)
let raw_to_string ~tag ~kernel ~sv ~coef ~b =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (Printf.sprintf "%s\n" tag);
  Buffer.add_string buffer (Printf.sprintf "kernel %s\n" (kernel_to_string kernel));
  Buffer.add_string buffer (Printf.sprintf "bias %s\n" (fp b));
  Buffer.add_string buffer (Printf.sprintf "nsv %d\n" (Array.length sv));
  Array.iteri
    (fun i row ->
      Buffer.add_string buffer (fp coef.(i));
      Array.iter
        (fun v ->
          Buffer.add_char buffer ' ';
          Buffer.add_string buffer (fp v))
        row;
      Buffer.add_char buffer '\n')
    sv;
  Buffer.contents buffer

let raw_of_string ~tag text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: rest when header = tag ->
    let rec parse_headers kernel bias nsv = function
      | line :: more ->
        (match String.index_opt line ' ' with
         | Some i ->
           let key = String.sub line 0 i in
           let value = String.sub line (i + 1) (String.length line - i - 1) in
           (match key with
            | "kernel" ->
              (match kernel_of_string value with
               | Ok k -> parse_headers (Some k) bias nsv more
               | Error e -> Error e)
            | "bias" ->
              (match float_of_string_opt value with
               | Some b -> parse_headers kernel (Some b) nsv more
               | None -> Error "bad bias")
            | "nsv" ->
              (match int_of_string_opt value with
               | Some n -> Ok (kernel, bias, n, more)
               | None -> Error "bad nsv")
            | _ -> Error (Printf.sprintf "unknown header %S" key))
         | None -> Error (Printf.sprintf "malformed header line %S" line))
      | [] -> Error "missing headers"
    in
    (match parse_headers None None 0 rest with
     | Error e -> Error e
     | Ok (kernel, bias, nsv, body) ->
       (match (kernel, bias) with
        | Some kernel, Some b ->
          if List.length body <> nsv then Error "support-vector count mismatch"
          else begin
            let rows =
              List.map
                (fun line ->
                  String.split_on_char ' ' line
                  |> List.filter (fun t -> t <> "")
                  |> List.map float_of_string_opt)
                body
            in
            if
              List.exists
                (fun row -> List.exists (fun v -> v = None) row || row = [])
                rows
            then Error "malformed support-vector line"
            else begin
              let rows = List.map (List.map Option.get) rows in
              let coef = Array.of_list (List.map List.hd rows) in
              let sv =
                Array.of_list
                  (List.map (fun row -> Array.of_list (List.tl row)) rows)
              in
              if
                Array.exists
                  (fun r -> Array.length r <> Array.length sv.(0))
                  sv
              then Error "ragged support vectors"
              else Ok (kernel, sv, coef, b)
            end
          end
        | _ -> Error "missing kernel or bias header"))
  | header :: _ -> Error (Printf.sprintf "expected %S header, got %S" tag header)
  | [] -> Error "empty model text"

let svr_to_string m =
  let r = Svr.to_raw m in
  raw_to_string ~tag:"stc-svr-1" ~kernel:r.Svr.raw_kernel ~sv:r.Svr.raw_sv
    ~coef:r.Svr.raw_coef ~b:r.Svr.raw_b

let svr_of_string text =
  match raw_of_string ~tag:"stc-svr-1" text with
  | Error e -> Error e
  | Ok (kernel, sv, coef, b) ->
    Ok (Svr.of_raw { Svr.raw_kernel = kernel; raw_sv = sv; raw_coef = coef; raw_b = b })

let svc_to_string m =
  let r = Svc.to_raw m in
  raw_to_string ~tag:"stc-svc-1" ~kernel:r.Svc.raw_kernel ~sv:r.Svc.raw_sv
    ~coef:r.Svc.raw_coef ~b:r.Svc.raw_b

let svc_of_string text =
  match raw_of_string ~tag:"stc-svc-1" text with
  | Error e -> Error e
  | Ok (kernel, sv, coef, b) ->
    Ok (Svc.of_raw { Svc.raw_kernel = kernel; raw_sv = sv; raw_coef = coef; raw_b = b })
