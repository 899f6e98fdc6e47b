//! Attribute vectors (MCT `AttrVect` analogue): named field bundles on a
//! local decomposition slice, with the §5.2.4 trimming of "unnecessary
//! communication variables that are registered in MCT and are not used in
//! GRIST and LICOM".

/// A bundle of named fields over `npoints` local points. Fields keep their
/// declaration order (MCT's rList): iteration, [`pack`](AttrVect::pack) and
/// the driver's per-field rearranges all follow it, so the order is part of
/// the wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrVect {
    npoints: usize,
    fields: Vec<(String, Vec<f64>)>,
}

impl AttrVect {
    pub fn new(npoints: usize, field_names: &[&str]) -> Self {
        AttrVect {
            npoints,
            fields: field_names
                .iter()
                .map(|n| (n.to_string(), vec![0.0; npoints]))
                .collect(),
        }
    }

    pub fn npoints(&self) -> usize {
        self.npoints
    }

    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|(n, _)| n.as_str()).collect()
    }

    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// `(name, data)` of every field, in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.fields.iter().map(|(n, d)| (n.as_str(), d.as_slice()))
    }

    /// Mutable counterpart of [`fields`](AttrVect::fields).
    pub fn fields_mut(&mut self) -> impl Iterator<Item = (&str, &mut [f64])> {
        self.fields
            .iter_mut()
            .map(|(n, d)| (n.as_str(), d.as_mut_slice()))
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
            .unwrap_or_else(|| panic!("no field {name:?} in attribute vector"))
    }

    pub fn get_mut(&mut self, name: &str) -> &mut [f64] {
        self.fields
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_mut_slice())
            .unwrap_or_else(|| panic!("no field {name:?} in attribute vector"))
    }

    pub fn set(&mut self, name: &str, data: &[f64]) {
        assert_eq!(data.len(), self.npoints, "field length mismatch");
        self.get_mut(name).copy_from_slice(data);
    }

    /// Drop every field not in `used` — the paper's removal of registered-
    /// but-unused coupling variables. Returns how many were trimmed.
    pub fn retain_used(&mut self, used: &[&str]) -> usize {
        let before = self.fields.len();
        self.fields.retain(|(name, _)| used.contains(&name.as_str()));
        before - self.fields.len()
    }

    /// Bytes of payload this bundle contributes to one rearrangement.
    pub fn payload_bytes(&self) -> usize {
        self.fields.len() * self.npoints * 8
    }

    /// Pack all fields (in declaration order) into one flat buffer for a
    /// single rearrangement message, and the unpack inverse.
    pub fn pack(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.fields.len() * self.npoints);
        for (_, data) in &self.fields {
            out.extend_from_slice(data);
        }
        out
    }

    pub fn unpack(&mut self, buf: &[f64]) {
        assert_eq!(buf.len(), self.fields.len() * self.npoints, "unpack size");
        let n = self.npoints;
        for (k, (_, data)) in self.fields.iter_mut().enumerate() {
            data.copy_from_slice(&buf[k * n..(k + 1) * n]);
        }
    }
}

// The bundles the coupled driver exchanges, CPL7-style: `x2c` is what the
// coupler hands component `c`, `c2x` what the component hands back.

/// Coupler → ocean: the merged atmosphere + ice forcing (stress, net heat,
/// virtual salt flux). Scattered field by field, in this order, on
/// rearranger tag 21.
pub const X2O_FIELDS: &[&str] = &["taux", "tauy", "qnet", "salt"];
/// Ocean → coupler: surface temperature and currents. Gathered field by
/// field, in this order, on rearranger tag 22.
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
    fn pack_unpack_roundtrip_in_declaration_order() {
        // Declared out of name order: the wire order is the declared one.
        let mut av = AttrVect::new(3, &["b", "a"]);
        av.set("a", &[1.0, 2.0, 3.0]);
        av.set("b", &[-1.0, -2.0, -3.0]);
        assert_eq!(av.field_names(), ["b", "a"]);
        let packed = av.pack();
        assert_eq!(packed, [-1.0, -2.0, -3.0, 1.0, 2.0, 3.0]);
        let mut other = AttrVect::new(3, &["b", "a"]);
        other.unpack(&packed);
        assert_eq!(av, other);
        assert_eq!(AttrVect::new(1, X2O_FIELDS).field_names(), X2O_FIELDS);
    }

    #[test]
    #[should_panic(expected = "no field")]
    fn unknown_field_panics() {
        let av = AttrVect::new(2, &["x"]);
        let _ = av.get("y");
    }
}
