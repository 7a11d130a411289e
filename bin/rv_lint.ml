(* rv_lint — standalone determinism & concurrency linter.

   Same command line as `rv lint` (both evaluate Rv_lint.Cli.cmd); shipped
   as its own binary so CI and editors can run the gate without linking
   the whole simulator. *)

let () = exit (Cmdliner.Cmd.eval' (Rv_lint.Cli.cmd ~version:"2.0.0" "rv_lint" Fun.id))
