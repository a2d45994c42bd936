class VoidField {
  private void x;
}
