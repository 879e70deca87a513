type atom = { element : Element.t; pos : Geometry.point; monomer : int }
type t = { name : string; atoms : atom array; num_monomers : int }

(* one water: O at the site, two H at the experimental geometry offsets *)
let water_atoms ~monomer center =
  let open Geometry in
  [
    { element = Element.O; pos = center; monomer };
    { element = Element.H; pos = add center (make 0.757 0.586 0.); monomer };
    { element = Element.H; pos = add center (make (-0.757) 0.586 0.); monomer };
  ]

let water_cluster ~rng n =
  if n <= 0 then invalid_arg "Molecule.water_cluster: n must be positive";
  (* smallest cube holding n sites, ~3 Å lattice with 0.3 Å jitter *)
  let side = int_of_float (Float.ceil (float_of_int n ** (1. /. 3.))) in
  let spacing = 3.1 in
  let atoms = ref [] in
  let placed = ref 0 in
  for ix = 0 to side - 1 do
    for iy = 0 to side - 1 do
      for iz = 0 to side - 1 do
        if !placed < n then begin
          let jitter () = Numerics.Rng.uniform rng ~lo:(-0.3) ~hi:0.3 in
          let center =
            Geometry.make
              ((float_of_int ix *. spacing) +. jitter ())
              ((float_of_int iy *. spacing) +. jitter ())
              ((float_of_int iz *. spacing) +. jitter ())
          in
          atoms := List.rev_append (water_atoms ~monomer:!placed center) !atoms;
          incr placed
        end
      done
    done
  done;
  {
    name = Printf.sprintf "(H2O)%d" n;
    atoms = Array.of_list (List.rev !atoms);
    num_monomers = n;
  }

type residue = Gly | Ala | Ser | Leu | Phe | Trp

(* heavy-atom + hydrogen compositions of the free amino acids *)
let residue_atoms = function
  | Gly -> Element.[ N; C; C; O; H; H; H; H; H ]
  | Ala -> Element.[ N; C; C; O; C; H; H; H; H; H; H; H ]
  | Ser -> Element.[ N; C; C; O; C; O; H; H; H; H; H; H; H ]
  | Leu -> Element.[ N; C; C; O; C; C; C; C; H; H; H; H; H; H; H; H; H; H; H ]
  | Phe -> Element.[ N; C; C; O; C; C; C; C; C; C; C; H; H; H; H; H; H; H; H; H; H ]
  | Trp -> Element.[ N; C; C; O; C; C; C; C; C; C; C; C; N; H; H; H; H; H; H; H; H; H; H; H ]

let residue_name = function
  | Gly -> "G"
  | Ala -> "A"
  | Ser -> "S"
  | Leu -> "L"
  | Phe -> "F"
  | Trp -> "W"

(* place residue atoms compactly around a backbone site *)
let place_residue ~monomer center elements =
  List.mapi
    (fun i e ->
      (* deterministic small offsets so atoms of one residue stay close *)
      let fi = float_of_int i in
      let pos =
        Geometry.add center
          (Geometry.make
             (0.5 *. cos (fi *. 2.1))
             (0.5 *. sin (fi *. 2.1))
             (0.3 *. cos (fi *. 1.3)))
      in
      { element = e; pos; monomer })
    elements

let chain name residues =
  let spacing = 3.8 in
  let atoms =
    List.concat
      (List.mapi
         (fun i r ->
           let center = Geometry.make (float_of_int i *. spacing) 0. 0. in
           place_residue ~monomer:i center (residue_atoms r))
         residues)
  in
  { name; atoms = Array.of_list atoms; num_monomers = List.length residues }

let polyalanine n =
  if n <= 0 then invalid_arg "Molecule.polyalanine: n must be positive";
  chain (Printf.sprintf "(Ala)%d" n) (List.init n (fun _ -> Ala))

let polypeptide residues =
  if residues = [] then invalid_arg "Molecule.polypeptide: empty sequence";
  let name = String.concat "" (List.map residue_name residues) in
  chain name residues

let random_peptide ~rng n =
  if n <= 0 then invalid_arg "Molecule.random_peptide: n must be positive";
  let all = [| Gly; Ala; Ser; Leu; Phe; Trp |] in
  let residues = List.init n (fun _ -> Numerics.Rng.choose rng all) in
  chain (Printf.sprintf "peptide%d" n) residues

let solvated_peptide ~rng ~residues ~waters =
  if residues <= 0 || waters <= 0 then
    invalid_arg "Molecule.solvated_peptide: counts must be positive";
  let all = [| Gly; Ala; Ser; Leu; Phe; Trp |] in
  let sequence = List.init residues (fun _ -> Numerics.Rng.choose rng all) in
  let backbone = chain "solute" sequence in
  (* waters on a loose helix around the chain axis, ~4-6 Å out *)
  let spacing = 3.8 in
  let chain_len = float_of_int residues *. spacing in
  let water_atoms_list =
    List.concat
      (List.init waters (fun w ->
           let t = float_of_int w /. float_of_int waters in
           let angle = (float_of_int w *. 2.399) +. Numerics.Rng.uniform rng ~lo:(-0.2) ~hi:0.2 in
           let radius = Numerics.Rng.uniform rng ~lo:4.5 ~hi:6.5 in
           let center =
             Geometry.make (t *. chain_len) (radius *. cos angle) (radius *. sin angle)
           in
           water_atoms ~monomer:(residues + w) center))
  in
  {
    name = Printf.sprintf "%s+(H2O)%d" backbone.name waters;
    atoms = Array.append backbone.atoms (Array.of_list water_atoms_list);
    num_monomers = residues + waters;
  }

let monomer_atoms m i =
  if i < 0 || i >= m.num_monomers then invalid_arg "Molecule.monomer_atoms: index out of range";
  Array.to_list (Array.of_seq (Seq.filter (fun a -> a.monomer = i) (Array.to_seq m.atoms)))

let monomer_centroid m i =
  Geometry.centroid (List.map (fun a -> a.pos) (monomer_atoms m i))

let num_atoms m = Array.length m.atoms

let pp fmt m =
  Format.fprintf fmt "%s: %d atoms, %d monomers" m.name (num_atoms m) m.num_monomers
