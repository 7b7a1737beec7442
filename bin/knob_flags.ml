(** Command-line flags derived from the knob registry
    ({!Rio.Options.engine_knobs}, {!Rio.Options.pool_knobs}), shared by
    [rio_run] and [rio_serve].

    One rule for every knob flag: a flag that is given overrides the
    base configuration, a flag that is absent leaves it alone.  The
    base is the caller's — the defaults, or a loaded bundle. *)

open Cmdliner
module O = Rio.Options

let choice names xs = Arg.enum (List.map (fun x -> (names x, x)) xs)

(* The value a knob's flag carries, [None] when it is absent. *)
let value_term : type a. a O.kind -> O.cli -> a option Term.t =
 fun kind c ->
  let flag_info = Arg.info c.O.flags ~docv:c.O.docv ~doc:c.O.doc in
  let opt cv = Arg.(value & opt (some cv) None & flag_info) in
  match kind with
  | O.K_bool ->
      Term.(
        const (fun given -> if given then Some (not c.O.negate) else None)
        $ Arg.(value & flag & flag_info))
  | O.K_int -> opt Arg.int
  | O.K_int_opt -> Term.(const (Option.map Option.some) $ opt Arg.int)
  | O.K_float_opt -> Term.(const (Option.map Option.some) $ opt Arg.float)
  | O.K_policy -> opt (choice O.flush_policy_name [ O.Flush_fifo; O.Flush_full ])
  | O.K_passes ->
      Term.(
        const (function [] -> None | ps -> Some ps)
        $ Arg.(value & opt_all (choice O.pass_name O.all_passes) [] & flag_info))
  | O.K_record _ | O.K_record_opt _ ->
      invalid_arg "Knob_flags: nested records have no flag"

(** A term for the flags of the named knobs, yielding the function
    that applies the given ones to a base record. *)
let term (knobs : 'r O.knob list) (names : string list) : ('r -> 'r) Term.t =
  List.fold_left
    (fun acc name ->
      match O.find_knob knobs name with
      | O.Knob { kind; set; cli = Some c; _ } ->
          Term.(
            const (fun apply v r ->
                let r = apply r in
                match v with Some v -> set r v | None -> r)
            $ acc $ value_term kind c)
      | O.Knob _ -> invalid_arg ("Knob_flags: knob has no flag: " ^ name))
    (Term.const Fun.id) names
