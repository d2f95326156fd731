(* Shared text-report layout: every experiment's report opens with a
   section header stating what the paper reports, so the output reads as an
   EXPERIMENTS.md draft. *)

let hr ppf = Format.fprintf ppf "%s@." (String.make 78 '-')

let section ppf title paper_claim =
  hr ppf;
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "paper: %s@." paper_claim;
  hr ppf
