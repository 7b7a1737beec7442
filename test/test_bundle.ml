(** The configuration-bundle codec (DESIGN.md §6.9).

    A bundle is a real artifact: the autotuner emits one, CI archives
    it, and [rio_serve --bundle] boots from it — so the codec must
    round-trip every valid bundle exactly, keep its digest stable
    under field reordering (the digest names the *configuration*, not
    the byte layout), and reject malformed input with a typed error
    instead of a best-effort guess. *)

module B = Rio.Bundle
module O = Rio.Options

(* ------------------------------------------------------------------ *)
(* Generator: random valid bundles                                    *)
(* ------------------------------------------------------------------ *)

let gen_string =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9' ])
      (int_range 0 12))

let gen_opts : O.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* opt_level = int_range 0 3 in
  let* trace_threshold = int_range 1 500 in
  let* max_trace_blocks = int_range 2 32 in
  let* spec_threshold = int_range 1 64 in
  let* spec_max_violations = int_range 1 16 in
  let* quantum = int_range 1_000 500_000 in
  let* link_indirect = bool in
  let* always_save_flags = bool in
  let* flush_policy = oneofl [ O.Flush_fifo; O.Flush_full ] in
  let* reopt =
    if opt_level >= 1 then opt (int_range 1 16) else return None
  in
  let base =
    {
      O.default with
      opt_level;
      trace_threshold;
      max_trace_blocks;
      spec_threshold;
      spec_max_violations;
      quantum;
      link_indirect;
      always_save_flags;
      flush_policy;
      reopt_threshold = reopt;
    }
  in
  let* cap = opt (int_range 2 4) in
  let* ctx_cost = int_range 1 100 in
  return
    {
      base with
      O.cache_capacity = Option.map (fun k -> k * O.min_cache_capacity base) cap;
      costs = { base.O.costs with O.context_switch = ctx_cost };
    }

let gen_pool : O.pool_opts QCheck.Gen.t =
  let open QCheck.Gen in
  let* domains = int_range 1 4 in
  let* max_inflight = int_range 1 128 in
  let* affinity = bool in
  let* retries = int_range 1 4 in
  let* quarantine_threshold = int_range 1 5 in
  let* accept_queue = int_range 1 256 in
  let* batch_window = int_range 0 16 in
  let* prewarm = bool in
  let* min_domains = opt (int_range 1 domains) in
  let* scale_down_depth = int_range 0 3 in
  let* scale_up_depth = int_range (scale_down_depth + 1) 8 in
  let* scale_hysteresis = int_range 1 5 in
  return
    {
      O.default_pool with
      domains;
      max_inflight;
      affinity;
      retries;
      quarantine_threshold;
      accept_queue;
      batch_window;
      prewarm;
      min_domains;
      scale_up_depth;
      scale_down_depth;
      scale_hysteresis;
    }

let override_names = [ "art"; "gcc"; "gzip"; "parser" ]  (* sorted *)

let gen_overrides : (string * int) list QCheck.Gen.t =
  let open QCheck.Gen in
  let* picks =
    flatten_l
      (List.map
         (fun n ->
           let* keep = bool in
           let* lvl = int_range 0 3 in
           return (if keep then Some (n, lvl) else None))
         override_names)
  in
  return (List.filter_map Fun.id picks)

let gen_bundle : B.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* b_opts = gen_opts in
  let* b_pool = gen_pool in
  let* b_overrides = gen_overrides in
  let* created_by = gen_string in
  let* note = gen_string in
  return
    {
      B.b_opts;
      b_pool;
      b_overrides;
      b_provenance =
        { B.default_provenance with pv_created_by = created_by; pv_note = note };
    }

let bundle_arb =
  QCheck.make ~print:(fun b -> B.to_string b) gen_bundle

(* ------------------------------------------------------------------ *)
(* Round trip                                                         *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"of_string (to_string b) = Ok b" bundle_arb
    (fun b ->
      QCheck.assume (B.validate b = Ok ());
      match B.of_string (B.to_string b) with
      | Ok b' ->
          if b' = b then true
          else QCheck.Test.fail_reportf "round trip changed the bundle"
      | Error e ->
          QCheck.Test.fail_reportf "round trip failed: %s" (B.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Digest stability across field reordering                           *)
(* ------------------------------------------------------------------ *)

(* Deterministic shuffle of every object's field order; array order is
   semantic (pass lists) and stays put. *)
let rec shuffle_json rand (j : B.json) : B.json =
  match j with
  | B.Obj kvs ->
      let tagged =
        List.map (fun kv -> (rand (), kv)) kvs
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      B.Obj (List.map (fun (_, (k, v)) -> (k, shuffle_json rand v)) tagged)
  | B.Arr xs -> B.Arr (List.map (shuffle_json rand) xs)
  | _ -> j

let lcg_rand seed =
  let s = ref (seed land 0x3fff_ffff) in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3fff_ffff;
    !s

let prop_digest_reorder =
  QCheck.Test.make ~count:100
    ~name:"digest and parse stable under field reordering"
    QCheck.(pair bundle_arb (make Gen.(int_bound 0xffff)))
    (fun (b, seed) ->
      QCheck.assume (B.validate b = Ok ());
      let reordered = shuffle_json (lcg_rand seed) (B.to_json b) in
      match B.of_json reordered with
      | Ok b' ->
          if b' <> b then
            QCheck.Test.fail_reportf "reordered parse changed the bundle"
          else if B.digest b' <> B.digest b then
            QCheck.Test.fail_reportf "digest moved: %08x vs %08x" (B.digest b')
              (B.digest b)
          else true
      | Error e ->
          QCheck.Test.fail_reportf "reordered parse failed: %s"
            (B.error_to_string e))

(* The digest names the configuration payload only: provenance edits
   (who tuned it, when, the note) must not move it. *)
let test_digest_ignores_provenance () =
  let b =
    { B.b_opts = O.default; b_pool = O.default_pool; b_overrides = [];
      b_provenance = B.default_provenance }
  in
  let b' =
    { b with
      B.b_provenance =
        { B.pv_created_by = "someone-else"; pv_created_at = "2199-01-01";
          pv_objective = "different"; pv_note = "edited after the fact" } }
  in
  Alcotest.(check bool) "digest unchanged" true (B.digest b = B.digest b')

(* ------------------------------------------------------------------ *)
(* Typed rejection                                                    *)
(* ------------------------------------------------------------------ *)

let err_kind = function
  | Ok _ -> "ok"
  | Error (B.Io_error _) -> "io"
  | Error (B.Parse_error _) -> "parse"
  | Error (B.Unknown_key k) -> "unknown:" ^ k
  | Error (B.Bad_value (f, _)) -> "bad:" ^ f
  | Error (B.Stale_version v) -> Printf.sprintf "stale:%d" v
  | Error (B.Invalid_bundle _) -> "invalid"

let check_reject name expected text =
  Alcotest.(check string) name expected (err_kind (B.of_string text))

let test_rejections () =
  check_reject "unknown top-level key" "unknown:zzz"
    {|{"bundle_version": 1, "zzz": 3}|};
  check_reject "unknown engine key" "unknown:engine.warp_factor"
    {|{"bundle_version": 1, "engine": {"warp_factor": 9}}|};
  check_reject "unknown costs key" "unknown:engine.costs.telepathy"
    {|{"bundle_version": 1, "engine": {"costs": {"telepathy": 1}}}|};
  check_reject "stale version" "stale:3" {|{"bundle_version": 3}|};
  check_reject "missing version" "bad:bundle_version" {|{"engine": {}}|};
  check_reject "out-of-range opt level" "bad:engine.opt_level"
    {|{"bundle_version": 1, "engine": {"opt_level": 9}}|};
  check_reject "negative trace threshold" "bad:engine.trace_threshold"
    {|{"bundle_version": 1, "engine": {"trace_threshold": -5}}|};
  check_reject "zero quantum" "bad:engine.quantum"
    {|{"bundle_version": 1, "engine": {"quantum": 0}}|};
  check_reject "out-of-range override" "bad:overrides.gzip"
    {|{"bundle_version": 1, "overrides": {"gzip": 7}}|};
  check_reject "non-integer override" "bad:overrides.gcc"
    {|{"bundle_version": 1, "overrides": {"gcc": "fast"}}|};
  check_reject "wrong field type" "bad:engine.quantum"
    {|{"bundle_version": 1, "engine": {"quantum": "often"}}|};
  check_reject "bad flush policy" "bad:engine.flush_policy"
    {|{"bundle_version": 1, "engine": {"flush_policy": "lru"}}|};
  check_reject "unknown pool key" "unknown:pool.turbo"
    {|{"bundle_version": 1, "pool": {"turbo": true}}|};
  check_reject "zero accept queue" "bad:pool.accept_queue"
    {|{"bundle_version": 1, "pool": {"accept_queue": 0}}|};
  check_reject "negative batch window" "bad:pool.batch_window"
    {|{"bundle_version": 1, "pool": {"batch_window": -1}}|};
  check_reject "non-bool prewarm" "bad:pool.prewarm"
    {|{"bundle_version": 1, "pool": {"prewarm": 3}}|};
  check_reject "min-domains above domains" "invalid"
    {|{"bundle_version": 1, "pool": {"domains": 2, "min_domains": 4}}|};
  check_reject "overlapping scale thresholds" "invalid"
    {|{"bundle_version": 1, "pool": {"scale_up_depth": 1, "scale_down_depth": 1}}|};
  check_reject "zero scale hysteresis" "bad:pool.scale_hysteresis"
    {|{"bundle_version": 1, "pool": {"scale_hysteresis": 0}}|};
  check_reject "duplicate key" "parse"
    {|{"bundle_version": 1, "bundle_version": 1}|};
  check_reject "trailing garbage" "parse" {|{"bundle_version": 1} x|};
  check_reject "digest mismatch" "bad:digest"
    {|{"bundle_version": 1, "digest": "00000000"}|}

(* A stored digest that matches is accepted; the written form always
   carries one that matches. *)
let test_digest_verified () =
  let b =
    { B.b_opts = { O.default with O.opt_level = 2 }; b_pool = O.default_pool;
      b_overrides = [ ("gcc", 0) ]; b_provenance = B.default_provenance }
  in
  (match B.of_string (B.to_string b) with
   | Ok b' -> Alcotest.(check bool) "accepted with own digest" true (b' = b)
   | Error e -> Alcotest.failf "rejected: %s" (B.error_to_string e));
  (* flip the embedded digest and it must be refused *)
  let replace sub by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i ->
        String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let tampered =
    replace (Printf.sprintf "%08x" (B.digest b)) "deadbeef" (B.to_string b)
  in
  Alcotest.(check string) "tampered digest refused" "bad:digest"
    (err_kind (B.of_string tampered))

(* ------------------------------------------------------------------ *)
(* Override projection                                                *)
(* ------------------------------------------------------------------ *)

let test_opts_for () =
  let base =
    { O.default with O.opt_level = 3; reopt_threshold = Some 4 }
  in
  let b =
    { B.b_opts = base; b_pool = O.default_pool;
      b_overrides = [ ("gcc", 0); ("gzip", 1) ];
      b_provenance = B.default_provenance }
  in
  Alcotest.(check bool) "bundle valid" true (B.validate b = Ok ());
  Alcotest.(check int) "no override -> base level" 3
    (B.opts_for b "art").O.opt_level;
  Alcotest.(check int) "gzip demoted" 1 (B.opts_for b "gzip").O.opt_level;
  let gcc = B.opts_for b "gcc" in
  Alcotest.(check int) "gcc off" 0 gcc.O.opt_level;
  (* the level-0 projection must drop level-gated knobs so it is a
     valid configuration on its own *)
  Alcotest.(check bool) "gcc projection valid" true
    (O.validate gcc = Ok ());
  Alcotest.(check bool) "reopt dropped at level 0" true
    (gcc.O.reopt_threshold = None)

(* ------------------------------------------------------------------ *)
(* The committed bundle and the knob registry                         *)
(* ------------------------------------------------------------------ *)

(* The shipped bundle.json re-reads to the same digest and re-prints
   byte for byte: the registry-derived codec keeps the field order and
   layout of the file the autotuner wrote. *)
let test_committed_bundle () =
  let path = "../bundle.json" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match B.load path with
  | Error e -> Alcotest.failf "bundle.json: %s" (B.error_to_string e)
  | Ok b ->
      Alcotest.(check string) "digest" "ea494a40"
        (Printf.sprintf "%08x" (B.digest b));
      Alcotest.(check string) "re-printed byte for byte" text (B.to_string b)

(* One non-default value per knob kind ([None] for the nested records,
   whose own knobs are bumped one by one instead). *)
let bump_leaf : type a. a O.kind -> a -> a option =
 fun kind v ->
  match kind with
  | O.K_bool -> Some (not v)
  | O.K_int -> Some (v + 1)
  | O.K_int_opt -> Some (Some (Option.value v ~default:0 + 1))
  | O.K_float_opt -> Some (Some 0.5)
  | O.K_policy -> Some (if v = O.Flush_fifo then O.Flush_full else O.Flush_fifo)
  | O.K_passes -> Some [ O.Copy_prop ]
  | O.K_record _ | O.K_record_opt _ -> None

(* Every single-knob change of [r], nested knobs included. *)
let rec variants : type r. r O.knob list -> r -> r list =
 fun knobs r ->
  List.concat_map
    (fun (O.Knob k) ->
      let v = k.get r in
      match (k.kind, v) with
      | O.K_record ks, _ -> List.map (k.set r) (variants ks v)
      | O.K_record_opt (ks, d), _ ->
          List.map (fun x -> k.set r (Some x)) (d :: variants ks d)
      | kind, _ -> List.map (k.set r) (Option.to_list (bump_leaf kind v)))
    knobs

(* Each knob reaches the file and comes back: a bundle differing from a
   valid base in one knob round-trips through to_string/of_string. *)
let test_registry_roundtrip () =
  let base =
    { B.b_opts = { O.default with O.opt_level = 2; flush_policy = O.Flush_full };
      b_pool = O.default_pool; b_overrides = []; b_provenance = B.default_provenance }
  in
  let cases =
    List.map (fun o -> { base with B.b_opts = o }) (variants O.engine_knobs base.B.b_opts)
    @ List.map (fun p -> { base with B.b_pool = p }) (variants O.pool_knobs base.B.b_pool)
  in
  (* 22 plain engine knobs, 11 costs, faults on + its 6 knobs, 15 pool *)
  Alcotest.(check int) "one case per knob" 55 (List.length cases);
  List.iter
    (fun b ->
      Alcotest.(check bool) "differs from base" false (b = base);
      match B.of_string (B.to_string b) with
      | Ok b' -> Alcotest.(check bool) (B.to_string b) true (b' = b)
      | Error e -> Alcotest.failf "%s\n%s" (B.error_to_string e) (B.to_string b))
    cases

(* The registry covers every record field exactly once: bumping each
   top-level knob changes exactly one field, and the knobs' fields are
   all of the record's. *)
let check_covers : type r. string -> r O.knob list -> r -> unit =
 fun what knobs r ->
  let fields x = Array.init (Obj.size (Obj.repr x)) (Obj.field (Obj.repr x)) in
  let before = fields r in
  let touched =
    List.map
      (fun knob ->
        let after = fields (List.hd (variants [ knob ] r)) in
        match
          List.filter (fun i -> compare before.(i) after.(i) <> 0)
            (List.init (Array.length before) Fun.id)
        with
        | [ i ] -> i
        | is ->
            let (O.Knob k) = knob in
            Alcotest.failf "%s.%s touches %d fields" what k.name (List.length is))
      knobs
  in
  Alcotest.(check (list int)) (what ^ ": every field once")
    (List.init (Array.length before) Fun.id)
    (List.sort compare touched)

let test_registry_covers_fields () =
  check_covers "engine" O.engine_knobs O.default;
  check_covers "costs" O.cost_knobs O.default_costs;
  check_covers "faults" O.fault_knobs O.default_faults;
  check_covers "pool" O.pool_knobs O.default_pool

let () =
  Alcotest.run "bundle"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_digest_reorder;
        ] );
      ( "directed",
        [
          Alcotest.test_case "digest ignores provenance" `Quick
            test_digest_ignores_provenance;
          Alcotest.test_case "typed rejection" `Quick test_rejections;
          Alcotest.test_case "embedded digest verified" `Quick
            test_digest_verified;
          Alcotest.test_case "override projection" `Quick test_opts_for;
          Alcotest.test_case "committed bundle.json" `Quick test_committed_bundle;
          Alcotest.test_case "every knob round-trips" `Quick test_registry_roundtrip;
          Alcotest.test_case "registry covers every field" `Quick
            test_registry_covers_fields;
        ] );
    ]
