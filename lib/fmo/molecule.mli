(** Molecular systems and the generators for the paper's workloads.

    Atoms carry a [monomer] label assigning them to a natural FMO
    monomer (one water molecule, one peptide residue); fragmentation
    ({!Fragment}) groups one or more monomers per fragment, which is how
    FMO practitioners control fragment size. *)

type atom = {
  element : Element.t;
  pos : Geometry.point;
  monomer : int;  (** natural monomer index this atom belongs to *)
}

type t = {
  name : string;
  atoms : atom array;
  num_monomers : int;
}

(** [water_cluster ~rng n] — (H₂O)ₙ on a jittered cubic lattice with
    ~3 Å spacing (the paper's strong-scaling workload). *)
val water_cluster : rng:Numerics.Rng.t -> int -> t

(** Residue types for peptide generation (size-heterogeneous). *)
type residue = Gly | Ala | Ser | Leu | Phe | Trp

val residue_atoms : residue -> Element.t list

(** [polyalanine n] — homogeneous n-residue chain (α-helix-like axis
    placement, 3.8 Å spacing). *)
val polyalanine : int -> t

(** [polypeptide residues] — chain with the given residue sequence. *)
val polypeptide : residue list -> t

(** [random_peptide ~rng n] — n residues drawn from all types;
    the heterogeneous workload for experiment E5. *)
val random_peptide : rng:Numerics.Rng.t -> int -> t

(** [solvated_peptide ~rng ~residues ~waters] — a random peptide wrapped
    in a shell of water molecules placed around the chain (the classic
    solute+solvent FMO setup: two very different fragment populations).
    Monomers 0..residues-1 are the residues, the rest the waters. *)
val solvated_peptide : rng:Numerics.Rng.t -> residues:int -> waters:int -> t

(** [monomer_atoms m i] — atoms of natural monomer [i]. *)
val monomer_atoms : t -> int -> atom list

(** [monomer_centroid m i] — centroid of monomer [i]'s atoms. *)
val monomer_centroid : t -> int -> Geometry.point

val num_atoms : t -> int
val pp : Format.formatter -> t -> unit
