(** Configuration bundles as a first-class artifact (DESIGN.md §6.9).

    A bundle is the complete tunable surface of the system — every
    engine knob ({!Options.t} including the cost model), the pool
    sizing/supervision block ({!Options.pool_opts}), and per-workload
    opt-level overrides — plus provenance describing where it came
    from.  Bundles serialize to the tree's JSON dialect ({!Json}), so
    the autotuner can ship its winner as `bundle.json` and
    [rio_serve --bundle] can load it at boot.  The engine and pool
    blocks are encoded and decoded through the knob registry
    ({!Options.engine_knobs}, {!Options.pool_knobs}).

    Deserialization is *validating*: unknown keys, out-of-range values
    (each knob's registry range, field-qualified), cross-field
    violations (via {!Options.validate} / {!Options.validate_pool},
    also applied to every override-projected configuration), malformed
    JSON, and stale [bundle_version]s are all rejected with a typed
    {!error}, never an exception.  {!digest} hashes the canonical
    printed form of the semantic payload (engine + pool + sorted
    overrides, provenance excluded), so reordering fields in the file
    — or rewriting the provenance block — does not change a bundle's
    identity. *)

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

(** Where a bundle came from.  Informational only: excluded from
    {!digest} so re-stamping provenance never changes identity. *)
type provenance = {
  pv_created_by : string;  (** producer, e.g. ["autotune"] or ["hand"] *)
  pv_created_at : string;  (** timestamp or build tag, free-form *)
  pv_objective : string;   (** objective the bundle was tuned against *)
  pv_note : string;
}

let default_provenance =
  { pv_created_by = "hand"; pv_created_at = ""; pv_objective = ""; pv_note = "" }

type t = {
  b_opts : Options.t;                (** engine knobs, incl. cost model *)
  b_pool : Options.pool_opts;        (** pool sizing / supervision *)
  b_overrides : (string * int) list;
      (** per-workload-key opt-level overrides, kept sorted by key *)
  b_provenance : provenance;
}

(** The hand-tuned defaults as a bundle: what a file holding only
    [{"bundle_version": 1}] loads to. *)
let default =
  {
    b_opts = Options.default;
    b_pool = Options.default_pool;
    b_overrides = [];
    b_provenance = default_provenance;
  }

(** Current serialization format.  Bump on incompatible schema change;
    older files are refused with {!Stale_version}. *)
let format_version = 1

type error =
  | Io_error of string         (** file could not be read/written *)
  | Parse_error of string      (** malformed JSON *)
  | Unknown_key of string      (** object key not in the schema, path-qualified *)
  | Bad_value of string * string  (** field path, what is wrong with it *)
  | Stale_version of int       (** [bundle_version] ≠ {!format_version} *)
  | Invalid_bundle of string   (** rejected by a cross-field rule *)

let error_to_string = function
  | Io_error m -> "bundle i/o error: " ^ m
  | Parse_error m -> "bundle parse error: " ^ m
  | Unknown_key k -> Printf.sprintf "bundle has unknown key %S" k
  | Bad_value (f, m) -> Printf.sprintf "bundle field %S: %s" f m
  | Stale_version v ->
      Printf.sprintf
        "bundle version %d is not supported (this build reads version %d)" v
        format_version
  | Invalid_bundle m -> "invalid bundle: " ^ m

let ( let* ) = Result.bind

(** The JSON dialect ({!Json}), re-exported for callers that build or
    inspect a bundle's JSON form. *)
type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Typed field access                                                 *)
(* ------------------------------------------------------------------ *)

(* The envelope (version, digest, provenance, overrides) is read with
   these helpers; the engine and pool blocks go through the knob
   registry ({!Options.of_json}). *)
let path ctx k = if ctx = "" then k else ctx ^ "." ^ k

let check_keys ~ctx allowed kvs =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
  | Some (k, _) -> Error (Unknown_key (path ctx k))
  | None -> Ok ()

let get_int ~ctx kvs k ~default =
  match List.assoc_opt k kvs with
  | None -> Ok default
  | Some (Int i) -> Ok i
  | Some _ -> Error (Bad_value (path ctx k, "expected an integer"))

let get_str ~ctx kvs k ~default =
  match List.assoc_opt k kvs with
  | None -> Ok default
  | Some (Str s) -> Ok s
  | Some _ -> Error (Bad_value (path ctx k, "expected a string"))

let get_obj ~ctx kvs k =
  match List.assoc_opt k kvs with
  | None -> Ok None
  | Some (Obj o) -> Ok (Some o)
  | Some Null -> Ok None
  | Some _ -> Error (Bad_value (path ctx k, "expected an object or null"))

(* ------------------------------------------------------------------ *)
(* Schema: printer                                                    *)
(* ------------------------------------------------------------------ *)

let sorted_overrides ov =
  List.sort (fun (a, _) (b, _) -> compare a b) ov

(** The semantic payload: everything that participates in {!digest},
    in canonical field order with overrides sorted by key. *)
let payload_to_json (b : t) : json =
  Obj
    [
      ("engine", Options.to_json Options.engine_knobs b.b_opts);
      ("pool", Options.to_json Options.pool_knobs b.b_pool);
      ( "overrides",
        Obj (List.map (fun (k, v) -> (k, Int v)) (sorted_overrides b.b_overrides))
      );
    ]

(** Stable identity of a bundle: FNV-1a over the canonical printed
    payload.  Reordering fields in the file, re-indenting it, or
    editing provenance leaves the digest unchanged; changing any knob
    or override changes it. *)
let digest (b : t) : int = Isa.Fnv.string (Json.to_string (payload_to_json b))

let to_json (b : t) : json =
  match payload_to_json b with
  | Obj payload ->
      Obj
        (("bundle_version", Int format_version)
        :: ("digest", Str (Printf.sprintf "%08x" (digest b)))
        :: ("provenance",
            Obj
              [
                ("created_by", Str b.b_provenance.pv_created_by);
                ("created_at", Str b.b_provenance.pv_created_at);
                ("objective", Str b.b_provenance.pv_objective);
                ("note", Str b.b_provenance.pv_note);
              ])
        :: payload)
  | _ -> assert false

let to_string (b : t) : string = Json.to_string (to_json b)

(* ------------------------------------------------------------------ *)
(* Schema: parser                                                     *)
(* ------------------------------------------------------------------ *)

(** Decode a registry-backed block onto its defaults.  A bundle is an
    external artifact, so every knob's range is enforced here, at the
    parse boundary, with a field-qualified error; cross-field rules
    are {!validate}'s. *)
let knobs_of_json ~ctx knobs base kvs =
  match Options.of_json knobs base kvs with
  | Error (Options.Unknown_field p) -> Error (Unknown_key (path ctx p))
  | Error (Options.Bad_field (p, m)) -> Error (Bad_value (path ctx p, m))
  | Ok r -> (
      match Options.check_ranges knobs r with
      | Some (p, m) -> Error (Bad_value (path ctx p, m))
      | None -> Ok r)

let overrides_of_json ~ctx kvs : ((string * int) list, error) result =
  let rec go acc = function
    | [] -> Ok (sorted_overrides (List.rev acc))
    | (k, Int lvl) :: rest ->
        if lvl < 0 || lvl > 3 then
          Error
            (Bad_value
               ( path ctx k,
                 Printf.sprintf "override opt level must be 0..3 (got %d)" lvl ))
        else go ((k, lvl) :: acc) rest
    | (k, _) :: _ -> Error (Bad_value (path ctx k, "expected an integer opt level"))
  in
  go [] kvs

let provenance_of_json ~ctx kvs : (provenance, error) result =
  let d = default_provenance in
  let* () = check_keys ~ctx [ "created_by"; "created_at"; "objective"; "note" ] kvs in
  let* pv_created_by = get_str ~ctx kvs "created_by" ~default:d.pv_created_by in
  let* pv_created_at = get_str ~ctx kvs "created_at" ~default:d.pv_created_at in
  let* pv_objective = get_str ~ctx kvs "objective" ~default:d.pv_objective in
  let* pv_note = get_str ~ctx kvs "note" ~default:d.pv_note in
  Ok { pv_created_by; pv_created_at; pv_objective; pv_note }

(* ------------------------------------------------------------------ *)
(* Assembly + validation                                              *)
(* ------------------------------------------------------------------ *)

(** Engine options actually used when booting workload [key]: the
    bundle's base options with the per-workload opt-level override
    applied.  Demoting to level 0 turns the optimizer fully off, so
    level-gated knobs ([opt_enable], [reopt_threshold]) are dropped
    along with it — the projected configuration is always valid when
    the base one is. *)
let opts_for (b : t) (key : string) : Options.t =
  match List.assoc_opt key b.b_overrides with
  | None -> b.b_opts
  | Some 0 ->
      { b.b_opts with opt_level = 0; opt_enable = []; reopt_threshold = None }
  | Some lvl -> { b.b_opts with opt_level = lvl }

(** Semantic validation of an assembled bundle: the base options, the
    pool block, and every override-projected configuration must pass
    the {!Options} validators. *)
let validate (b : t) : (unit, error) result =
  let* () =
    match Options.validate b.b_opts with
    | Ok () -> Ok ()
    | Error m -> Error (Invalid_bundle m)
  in
  let* () =
    match Options.validate_pool b.b_pool with
    | Ok () -> Ok ()
    | Error m -> Error (Invalid_bundle m)
  in
  let rec check = function
    | [] -> Ok ()
    | (k, _) :: rest -> (
        match Options.validate (opts_for b k) with
        | Ok () -> check rest
        | Error m ->
            Error (Invalid_bundle (Printf.sprintf "override for %S: %s" k m)))
  in
  check b.b_overrides

let of_json (j : json) : (t, error) result =
  match j with
  | Obj kvs ->
      let* () =
        check_keys ~ctx:""
          [ "bundle_version"; "digest"; "provenance"; "engine"; "pool"; "overrides" ]
          kvs
      in
      let* version = get_int ~ctx:"" kvs "bundle_version" ~default:(-1) in
      if version = -1 then
        Error (Bad_value ("bundle_version", "required field is missing"))
      else if version <> format_version then Error (Stale_version version)
      else
        (* an absent or null section keeps its default *)
        let section key base decode =
          let* o = get_obj ~ctx:"" kvs key in
          match o with None -> Ok base | Some o -> decode ~ctx:key o
        in
        let* b_opts =
          section "engine" default.b_opts
            (knobs_of_json Options.engine_knobs default.b_opts)
        in
        let* b_pool =
          section "pool" default.b_pool
            (knobs_of_json Options.pool_knobs default.b_pool)
        in
        let* b_overrides = section "overrides" [] overrides_of_json in
        let* b_provenance =
          section "provenance" default_provenance provenance_of_json
        in
        let b = { b_opts; b_pool; b_overrides; b_provenance } in
        let* () = validate b in
        let* () =
          (* the embedded digest, when present, must match the payload:
             catches bundles whose knobs were edited by hand without
             re-stamping *)
          let* ds = get_str ~ctx:"" kvs "digest" ~default:"" in
          if ds = "" || ds = Printf.sprintf "%08x" (digest b) then Ok ()
          else
            Error
              (Bad_value
                 ( "digest",
                   Printf.sprintf
                     "embedded digest %s does not match payload digest %08x \
                      (knobs edited without re-stamping?)"
                     ds (digest b) ))
        in
        Ok b
  | _ -> Error (Parse_error "top-level value must be an object")

let of_string (s : string) : (t, error) result =
  match Json.of_string s with
  | Ok j -> of_json j
  | Error m -> Error (Parse_error m)

(* ------------------------------------------------------------------ *)
(* File I/O                                                           *)
(* ------------------------------------------------------------------ *)

let load (path : string) : (t, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error (Io_error m)
  | s -> of_string s

let save (path : string) (b : t) : (unit, error) result =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_string b))
  with
  | exception Sys_error m -> Error (Io_error m)
  | () -> Ok ()
