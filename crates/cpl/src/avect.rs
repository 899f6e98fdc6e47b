//! Attribute vectors (MCT `AttrVect` analogue): named field bundles on a
//! local decomposition slice, with the §5.2.4 trimming of "unnecessary
//! communication variables that are registered in MCT and are not used in
//! GRIST and LICOM".

/// A bundle of named fields over `npoints` local points, stored field after
/// field in one buffer. Fields keep their declaration order (MCT's rList):
/// iteration, [`as_slice`](AttrVect::as_slice) and the rearranger's packed
/// messages all follow it, so the order is part of the wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrVect {
    npoints: usize,
    names: Vec<String>,
    /// `names.len() × npoints` values, field-major.
    data: Vec<f64>,
}

impl AttrVect {
    pub fn new(npoints: usize, field_names: &[&str]) -> Self {
        AttrVect {
            npoints,
            names: field_names.iter().map(|n| n.to_string()).collect(),
            data: vec![0.0; field_names.len() * npoints],
        }
    }

    pub fn npoints(&self) -> usize {
        self.npoints
    }

    pub fn field_names(&self) -> Vec<&str> {
        self.names.iter().map(|n| n.as_str()).collect()
    }

    pub fn num_fields(&self) -> usize {
        self.names.len()
    }

    /// `(name, data)` of every field, in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &[f64])> {
        let n = self.npoints;
        self.names
            .iter()
            .enumerate()
            .map(move |(k, name)| (name.as_str(), &self.data[k * n..(k + 1) * n]))
    }

    /// Mutable counterpart of [`fields`](AttrVect::fields).
    pub fn fields_mut(&mut self) -> impl Iterator<Item = (&str, &mut [f64])> {
        let n = self.npoints;
        let mut rest = self.data.as_mut_slice();
        self.names.iter().map(move |name| {
            let (field, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            (name.as_str(), field)
        })
    }

    fn index_of(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no field {name:?} in attribute vector"))
    }

    pub fn get(&self, name: &str) -> &[f64] {
        let k = self.index_of(name);
        &self.data[k * self.npoints..(k + 1) * self.npoints]
    }

    pub fn get_mut(&mut self, name: &str) -> &mut [f64] {
        let k = self.index_of(name);
        &mut self.data[k * self.npoints..(k + 1) * self.npoints]
    }

    pub fn set(&mut self, name: &str, data: &[f64]) {
        assert_eq!(data.len(), self.npoints, "field length mismatch");
        self.get_mut(name).copy_from_slice(data);
    }

    /// Drop every field not in `used` — the paper's removal of registered-
    /// but-unused coupling variables. Returns how many were trimmed.
    pub fn retain_used(&mut self, used: &[&str]) -> usize {
        let before = self.names.len();
        let n = self.npoints;
        let kept: Vec<usize> = (0..before)
            .filter(|&k| used.contains(&self.names[k].as_str()))
            .collect();
        self.data = kept
            .iter()
            .flat_map(|&k| &self.data[k * n..(k + 1) * n])
            .copied()
            .collect();
        self.names = kept
            .iter()
            .map(|&k| std::mem::take(&mut self.names[k]))
            .collect();
        before - self.names.len()
    }

    /// Bytes of payload this bundle contributes to one rearrangement.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// All fields, one after the other in declaration order: what a single
    /// rearrangement message is packed from.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable counterpart of [`as_slice`](AttrVect::as_slice).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

// The bundles the coupled driver exchanges, CPL7-style: `x2c` is what the
// coupler hands component `c`, `c2x` what the component hands back.

/// Coupler → ocean: the merged atmosphere + ice forcing (stress, net heat,
/// virtual salt flux). Scattered as one packed message per ocean rank, fields
/// in this order, on rearranger tag 21.
pub const X2O_FIELDS: &[&str] = &["taux", "tauy", "qnet", "salt"];
/// Ocean → coupler: surface temperature and currents. Gathered as one packed
/// message per ocean rank, fields in this order, on rearranger tag 22.
pub const O2X_FIELDS: &[&str] = &["sst", "ssu", "ssv"];
/// Coupler → ice: air temperature and winds on the ocean grid, SST and
/// surface currents.
pub const X2I_FIELDS: &[&str] = &["tair", "sst", "uwind", "vwind", "uocn", "vocn"];
/// Ice → coupler: cover, basal heat flux and melt fresh water.
pub const I2X_FIELDS: &[&str] = &["icefrac", "iceheat", "icefresh"];
/// Atmosphere → coupler: lowest-level wind, temperature, humidity and
/// pressure, surface radiation, and the precipitation rate over the last
/// coupling period.
pub const A2X_FIELDS: &[&str] = &["u", "v", "tbot", "qbot", "ps", "gsw", "glw", "precip"];
/// Coupler → atmosphere: the lower boundary and the solar zenith angle.
pub const X2A_FIELDS: &[&str] = &["tskin", "wetness", "coszr"];
/// Coupler → land.
pub const X2L_FIELDS: &[&str] = &["gsw", "glw", "tair", "precip", "wind"];
/// Land → coupler.
pub const L2X_FIELDS: &[&str] = &["tskin", "wetness"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut av = AttrVect::new(4, X2O_FIELDS);
        av.set("taux", &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(av.get("taux"), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(av.get("tauy"), &[0.0; 4]);
        assert_eq!(av.num_fields(), 4);
    }

    #[test]
    fn trim_unused_variables() {
        let mut av = AttrVect::new(8, &["taux", "tauy", "qnet", "dust", "co2", "isotopes"]);
        let bytes_before = av.payload_bytes();
        let trimmed = av.retain_used(&["taux", "tauy", "qnet"]);
        assert_eq!(trimmed, 3);
        assert_eq!(av.num_fields(), 3);
        assert_eq!(av.payload_bytes() * 2, bytes_before);
    }

    #[test]
    fn packed_storage_is_in_declaration_order() {
        // Declared out of name order: the wire order is the declared one.
        let mut av = AttrVect::new(3, &["b", "a"]);
        av.set("a", &[1.0, 2.0, 3.0]);
        av.set("b", &[-1.0, -2.0, -3.0]);
        assert_eq!(av.field_names(), ["b", "a"]);
        assert_eq!(av.as_slice(), [-1.0, -2.0, -3.0, 1.0, 2.0, 3.0]);
        let mut other = AttrVect::new(3, &["b", "a"]);
        other.as_mut_slice().copy_from_slice(av.as_slice());
        assert_eq!(av, other);
        let fields: Vec<(&str, &[f64])> = av.fields().collect();
        assert_eq!(fields[1], ("a", &[1.0, 2.0, 3.0][..]));
        for (_, data) in other.fields_mut() {
            data[0] = 9.0;
        }
        assert_eq!(other.as_slice(), [9.0, -2.0, -3.0, 9.0, 2.0, 3.0]);
        assert_eq!(AttrVect::new(1, X2O_FIELDS).field_names(), X2O_FIELDS);
    }

    #[test]
    #[should_panic(expected = "no field")]
    fn unknown_field_panics() {
        let av = AttrVect::new(2, &["x"]);
        let _ = av.get("y");
    }
}
