(** Span recorder and reader for the traced mode.

    A span is one timed call into a layer: its name, host start and end,
    the span that caused it and the request it served.  Spans stay in
    memory while the workload runs (recording is an allocation and two
    clock reads) and are written out, one tab-separated line each, when
    it ends; the per-layer numbers are then computed from the file read
    back, so what is reported is what was written. *)

type span = {
  id : int;
  name : string;
  t0 : float;  (** host seconds *)
  t1 : float;
  parent : int;  (** id of the causing span; -1 at top level *)
  req : int;  (** request (or program run) index; -1 when none *)
}

(* ------------------------------------------------------------------ *)
(* Recorder                                                           *)
(* ------------------------------------------------------------------ *)

type recorder = { mutable on : bool; mutable next_id : int; mutable spans : span list }

let recorder () = { on = false; next_id = 0; spans = [] }

let fresh_id (r : recorder) =
  let id = r.next_id in
  r.next_id <- id + 1;
  id

(** Record a span with known bounds; returns its id (-1 when off). *)
let add (r : recorder) ?(parent = -1) ?(req = -1) name t0 t1 : int =
  if not r.on then -1
  else begin
    let id = fresh_id r in
    r.spans <- { id; name; t0; t1; parent; req } :: r.spans;
    id
  end

(** Time [f id] as span [name], where [id] is the span's own id for
    children to name as their parent; with the recorder off this is
    just [f (-1)]. *)
let time (r : recorder) ?(parent = -1) ?(req = -1) name (f : int -> 'a) : 'a =
  if not r.on then f (-1)
  else begin
    let id = fresh_id r in
    let t0 = Unix.gettimeofday () in
    let v = f id in
    r.spans <- { id; name; t0; t1 = Unix.gettimeofday (); parent; req } :: r.spans;
    v
  end

let spans (r : recorder) : span list = List.rev r.spans

(* ------------------------------------------------------------------ *)
(* File format                                                        *)
(* ------------------------------------------------------------------ *)

let write path (spans : span list) : unit =
  let oc = open_out path in
  output_string oc "# id\tparent\treq\tname\tt0\tt1\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.req s.name
        s.t0 s.t1)
    spans;
  close_out oc

let read path : span list =
  let ic = open_in path in
  let acc = ref [] in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char '\t' line with
         | [ id; parent; req; name; t0; t1 ] ->
             acc :=
               {
                 id = int_of_string id;
                 parent = int_of_string parent;
                 req = int_of_string req;
                 name;
                 t0 = float_of_string t0;
                 t1 = float_of_string t1;
               }
               :: !acc
         | _ -> failwith ("spans: malformed line: " ^ line)
     done
   with End_of_file -> close_in ic);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Reader arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let dur_ms s = (s.t1 -. s.t0) *. 1000.0

(** Durations (ms) of every span called [name]. *)
let durations (spans : span list) name : float array =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (dur_ms s) else None) spans)

let mean_ms spans name = Arith.mean (durations spans name)

(** A span's duration minus the part of its interval its children
    cover (children may overlap each other; each instant counts once). *)
let self_ms (spans : span list) (p : span) : float =
  let kids =
    List.filter_map
      (fun s ->
        if s.parent = p.id then Some (Float.max s.t0 p.t0, Float.min s.t1 p.t1)
        else None)
      spans
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (cov, upto) (a, b) ->
        let a = Float.max a upto in
        if b > a then (cov +. (b -. a), b) else (cov, upto))
      (0.0, neg_infinity) kids
  in
  dur_ms p -. (covered *. 1000.0)

(** Per-request total duration (ms) of the spans whose name is in
    [names]. *)
let per_req (spans : span list) (names : string list) : (int, float) Hashtbl.t =
  let h = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.req >= 0 && List.mem s.name names then
        Hashtbl.replace h s.req
          (dur_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt h s.req)))
    spans;
  h

type rung_diff = {
  upper : string;  (** the rung with more layers *)
  lower : string;
  self_ms : float;  (** mean over requests of upper − lower *)
  stderr_ms : float;  (** standard error of that mean *)
  pairs : int;
  sound : bool;  (** false when the difference is negative beyond 2 stderr *)
}

(** The ladder: each rung names the spans that time one request at that
    layer (summed per request, e.g. reset + run), highest layer first,
    all replaying the same requests.  A layer's self time is the paired
    per-request difference between neighbouring rungs; a difference
    below zero by more than twice its standard error marks the ladder
    unsound there. *)
let ladder (spans : span list) (rungs : (string * string list) list) : rung_diff list =
  let rec go = function
    | (ua, na) :: ((lb, nb) :: _ as rest) ->
        let ha = per_req spans na and hb = per_req spans nb in
        let d =
          Hashtbl.fold
            (fun k va acc ->
              match Hashtbl.find_opt hb k with Some vb -> (va -. vb) :: acc | None -> acc)
            ha []
          |> Array.of_list
        in
        let n = Array.length d in
        let m = Arith.mean d in
        let var =
          if n < 2 then 0.0
          else
            Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 d
            /. float_of_int (n - 1)
        in
        let se = if n = 0 then 0.0 else sqrt (var /. float_of_int n) in
        { upper = ua; lower = lb; self_ms = m; stderr_ms = se; pairs = n;
          sound = n > 0 && m +. (2.0 *. se) >= 0.0 }
        :: go rest
    | _ -> []
  in
  go rungs
