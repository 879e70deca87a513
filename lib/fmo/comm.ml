module Json = Obs.Json

type t = { volume_mb : float array array }

let format_version = "hslb-comm-v1"
let size t = Array.length t.volume_mb

let volume t i j =
  let n = size t in
  if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Comm.volume: index out of range";
  t.volume_mb.(i).(j)

let total_mb t =
  let n = size t in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      acc := !acc +. t.volume_mb.(i).(j)
    done
  done;
  !acc

(* the jitter stream for one unordered fragment-id pair: keyed on the
   ids, not the array positions, so reordering the input permutes the
   matrix instead of reshuffling the noise *)
let pair_jitter ~seed idl idh =
  let mix = (((idh * 0x9E3779B9) lxor (idl * 0x85EBCA6B)) lxor (seed * 0xC2B2AE35)) land max_int in
  let rng = Numerics.Rng.create mix in
  Numerics.Rng.uniform rng ~lo:0.9 ~hi:1.1

let generate ?(scf_cutoff = 7.0) ?(seed = 0) frags =
  let n = Array.length frags in
  if n = 0 then invalid_arg "Comm.generate: no fragments";
  if scf_cutoff <= 0. then invalid_arg "Comm.generate: scf_cutoff must be positive";
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let fi = frags.(i) and fj = frags.(j) in
      let d = Fragment.distance fi fj in
      (* one pair density block at 8 bytes per basis-function product *)
      let block_mb = 8e-6 *. float_of_int (fi.Fragment.nbf * fj.Fragment.nbf) in
      let idl = Stdlib.min fi.Fragment.id fj.Fragment.id
      and idh = Stdlib.max fi.Fragment.id fj.Fragment.id in
      let jitter = pair_jitter ~seed idl idh in
      let v =
        if d <= scf_cutoff then block_mb *. jitter
        else
          (* ES pair: multipoles, decaying with the cube of separation *)
          block_mb *. jitter /. ((d /. scf_cutoff) ** 3.)
      in
      m.(i).(j) <- v;
      m.(j).(i) <- v
    done
  done;
  { volume_mb = m }

let of_matrix m =
  let n = Array.length m in
  if n = 0 then invalid_arg "Comm.of_matrix: empty matrix";
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg
          (Printf.sprintf "Comm.of_matrix: row %d has %d entries, expected %d" i
             (Array.length row) n))
    m;
  for i = 0 to n - 1 do
    if m.(i).(i) <> 0. then
      invalid_arg (Printf.sprintf "Comm.of_matrix: nonzero diagonal at %d" i);
    for j = 0 to n - 1 do
      if not (Float.is_finite m.(i).(j)) || m.(i).(j) < 0. then
        invalid_arg
          (Printf.sprintf "Comm.of_matrix: volume (%d,%d) must be finite and non-negative" i j);
      if m.(i).(j) <> m.(j).(i) then
        invalid_arg (Printf.sprintf "Comm.of_matrix: not symmetric at (%d,%d)" i j)
    done
  done;
  { volume_mb = Array.map Array.copy m }

let to_matrix t = Array.map Array.copy t.volume_mb

(* ---------- NDJSON ----------
   A header line, one data line per row, and parse errors as
   "FILE:LINE: message" so a hand-edited trace points at the offending
   line. *)

let json_num v = Json.to_string (Json.Num v)

let to_ndjson t =
  let n = size t in
  let buf = Buffer.create (n * n * 12) in
  Buffer.add_string buf (Printf.sprintf "{\"comm\":%S,\"n\":%d}\n" format_version n);
  Array.iteri
    (fun i row ->
      Buffer.add_string buf (Printf.sprintf "{\"row\":%d,\"mb\":[" i);
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (json_num v))
        row;
      Buffer.add_string buf "]}\n")
    t.volume_mb;
  Buffer.contents buf

exception Bad of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Bad (line, msg))) fmt

let field line obj key =
  match Json.member key obj with
  | Some v -> v
  | None -> fail line "missing field %S" key

let int_field line obj key =
  match Json.int_ (field line obj key) with
  | Some v -> v
  | None -> fail line "field %S: expected an integer" key

let str_field line obj key =
  match Json.str (field line obj key) with
  | Some v -> v
  | None ->
    fail line "field %S: expected a string, got %s" key (Json.type_name (field line obj key))

let of_ndjson ?(file = "comm") text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  try
    match lines with
    | [] -> Error (Printf.sprintf "%s:1: empty comm file" file)
    | (hline, htext) :: rest ->
      let parse_obj line text =
        match Json.parse text with
        | Error e -> fail line "%s" e
        | Ok (Json.Obj _ as o) -> o
        | Ok v -> fail line "expected an object, got %s" (Json.type_name v)
      in
      let h = parse_obj hline htext in
      let version = str_field hline h "comm" in
      if version <> format_version then
        fail hline "unsupported comm format %S (expected %S)" version format_version;
      let n = int_field hline h "n" in
      if n <= 0 then fail hline "field \"n\": must be positive";
      if List.length rest <> n then
        fail hline "header declares %d rows but the file has %d row lines" n
          (List.length rest);
      let parse_row idx (line, text) =
        let o = parse_obj line text in
        let i = int_field line o "row" in
        if i <> idx then fail line "expected row %d, got row %d" idx i;
        match Json.arr (field line o "mb") with
        | None ->
          fail line "field \"mb\": expected an array, got %s"
            (Json.type_name (field line o "mb"))
        | Some items ->
          if List.length items <> n then
            fail line "field \"mb\": expected %d entries (one per fragment), got %d" n
              (List.length items);
          Array.of_list
            (List.mapi
               (fun j v ->
                 match Json.num v with
                 | Some x when Float.is_finite x && x >= 0. -> x
                 | Some _ -> fail line "field \"mb\": element %d must be finite and non-negative" j
                 | None -> fail line "field \"mb\": element %d is not a number" j)
               items)
      in
      let m = Array.of_list (List.mapi parse_row rest) in
      List.iteri
        (fun idx (line, _) ->
          if m.(idx).(idx) <> 0. then fail line "field \"mb\": nonzero diagonal at %d" idx;
          for j = 0 to n - 1 do
            if m.(idx).(j) <> m.(j).(idx) then
              fail line "field \"mb\": volume (%d,%d) breaks symmetry" idx j
          done)
        rest;
      Ok { volume_mb = m }
  with Bad (line, msg) -> Error (Printf.sprintf "%s:%d: %s" file line msg)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_ndjson ~file:path text
  | exception Sys_error e -> Error e

let write_file path t =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_ndjson t))
