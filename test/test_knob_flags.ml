(** Command-line flags derived from the knob registry: a flag that is
    given overrides the base configuration, a flag that is absent
    leaves it alone — so a bundle's pool block survives [rio_serve]'s
    pool flags unless one is given. *)

module O = Rio.Options

let pool_flags =
  Knob_flags.term O.pool_knobs
    [ "domains"; "max_inflight"; "affinity"; "retries"; "quarantine_threshold";
      "deadline_cycles"; "deadline_secs"; "prewarm"; "accept_queue";
      "batch_window"; "min_domains" ]

let apply args base =
  match
    Cmdliner.Cmd.eval_value
      ~argv:(Array.of_list ("rio_serve" :: args))
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "rio_serve") pool_flags)
  with
  | Ok (`Ok f) -> f base
  | _ -> Alcotest.fail "flags did not parse"

let bundle_pool =
  match
    Rio.Bundle.of_string
      {|{"bundle_version": 1,
         "pool": {"domains": 1, "affinity": true, "retries": 0}}|}
  with
  | Ok b -> b.Rio.Bundle.b_pool
  | Error e -> failwith (Rio.Bundle.error_to_string e)

let test_absent_flags_keep_bundle () =
  let p = apply [] bundle_pool in
  Alcotest.(check bool) "pool block unchanged" true (p = bundle_pool);
  Alcotest.(check int) "domains" 1 p.O.domains;
  Alcotest.(check bool) "affinity" true p.O.affinity;
  Alcotest.(check int) "retries" 0 p.O.retries

let test_given_flags_override () =
  let p = apply [ "-d"; "3"; "--deadline-secs"; "2.5" ] bundle_pool in
  Alcotest.(check bool) "only the given knobs change" true
    (p = { bundle_pool with O.domains = 3; deadline_secs = Some 2.5 })

let () =
  Alcotest.run "knob_flags"
    [
      ( "override rule",
        [
          Alcotest.test_case "absent flags keep the bundle" `Quick
            test_absent_flags_keep_bundle;
          Alcotest.test_case "given flags override" `Quick
            test_given_flags_override;
        ] );
    ]
